package monitor

import "autoglobe/internal/obs"

// Metric families the monitoring pipeline emits.
const (
	// MetricWatches counts watch state-machine transitions by phase:
	// observed (a threshold violation opened a watch), confirmed (the
	// average stayed past the threshold for the watch time — a trigger),
	// expired (the average receded; a short peak was filtered out).
	MetricWatches = "autoglobe_monitor_watches_total"
)

// monitorMetrics pre-resolves the System's series. Nil-safe.
type monitorMetrics struct {
	observed  *obs.Counter
	confirmed *obs.Counter
	expired   *obs.Counter
}

func newMonitorMetrics(r *obs.Registry) *monitorMetrics {
	if r == nil {
		return nil
	}
	r.Help(MetricWatches, "Watch state-machine transitions, by phase.")
	return &monitorMetrics{
		observed:  r.Counter(MetricWatches, "phase", "observed"),
		confirmed: r.Counter(MetricWatches, "phase", "confirmed"),
		expired:   r.Counter(MetricWatches, "phase", "expired"),
	}
}

func (m *monitorMetrics) observe() {
	if m != nil {
		m.observed.Inc()
	}
}

func (m *monitorMetrics) confirm() {
	if m != nil {
		m.confirmed.Inc()
	}
}

func (m *monitorMetrics) expire() {
	if m != nil {
		m.expired.Inc()
	}
}

// Instrument attaches an obs registry to the load monitoring system:
// watch openings, confirmations and expirations are counted. A nil
// registry leaves the system uninstrumented.
func (s *System) Instrument(r *obs.Registry) {
	s.metrics = newMonitorMetrics(r)
}
