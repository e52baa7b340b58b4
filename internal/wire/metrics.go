package wire

import (
	"errors"
	"time"

	"autoglobe/internal/obs"
)

// Metric families the transports emit. Exported as constants so tests
// and dashboards reference one spelling.
const (
	MetricCalls   = "autoglobe_wire_calls_total"
	MetricErrors  = "autoglobe_wire_errors_total"
	MetricSeconds = "autoglobe_wire_call_seconds"
	MetricBytes   = "autoglobe_wire_bytes_total"
)

// wireMetrics pre-resolves a transport's metric series at Instrument
// time, so the per-call cost is a nil check, a short scan and an atomic
// add — cheap enough to stay unconditionally on the call path.
type wireMetrics struct {
	calls      [len(callTypes)]*obs.Counter // by callTypes
	callsOther *obs.Counter

	errTimeout *obs.Counter
	errNoRoute *obs.Counter
	errClosed  *obs.Counter
	errOther   *obs.Counter

	latency  *obs.Histogram
	bytesOut *obs.Counter // request envelope bytes (HTTP only)
	bytesIn  *obs.Counter // reply envelope bytes (HTTP only)
}

// newWireMetrics registers the series for one transport label.
func newWireMetrics(r *obs.Registry, transport string) *wireMetrics {
	if r == nil {
		return nil
	}
	r.Help(MetricCalls, "Control-plane calls sent, by transport and message type.")
	r.Help(MetricErrors, "Failed control-plane calls, by transport and cause.")
	r.Help(MetricSeconds, "Latency of one control-plane call (request to reply).")
	r.Help(MetricBytes, "Envelope bytes on the wire, by direction (HTTP transport).")
	m := &wireMetrics{}
	for i, mt := range callTypes {
		m.calls[i] = r.Counter(MetricCalls, "transport", transport, "type", string(mt))
	}
	m.callsOther = r.Counter(MetricCalls, "transport", transport, "type", "other")
	cause := func(c string) *obs.Counter {
		return r.Counter(MetricErrors, "transport", transport, "cause", c)
	}
	m.errTimeout = cause("timeout")
	m.errNoRoute = cause("noRoute")
	m.errClosed = cause("closed")
	m.errOther = cause("other")
	m.latency = r.Histogram(MetricSeconds, obs.LatencySecondsBuckets(), "transport", transport)
	if transport == "http" {
		m.bytesOut = r.Counter(MetricBytes, "direction", "sent", "transport", transport)
		m.bytesIn = r.Counter(MetricBytes, "direction", "received", "transport", transport)
	}
	return m
}

// callTypes have a series each, heartbeat first; the rest count as "other".
var callTypes = [...]MsgType{TypeHeartbeat, TypeAction, TypeAck, TypeProbe, TypeProbeAck, TypeHello, TypeLease}

// call counts one outgoing call by message type. Nil-safe.
func (m *wireMetrics) call(t MsgType) {
	if m == nil {
		return
	}
	for i, mt := range callTypes {
		if mt == t {
			m.calls[i].Inc()
			return
		}
	}
	m.callsOther.Inc()
}

// fail counts one failed call by cause. Nil-safe.
func (m *wireMetrics) fail(err error) {
	if m == nil || err == nil {
		return
	}
	switch {
	case errors.Is(err, ErrTimeout):
		m.errTimeout.Inc()
	case errors.Is(err, ErrNoRoute):
		m.errNoRoute.Inc()
	case errors.Is(err, ErrClosed):
		m.errClosed.Inc()
	default:
		m.errOther.Inc()
	}
}

// clock reads the monotonic clock once, where time.Now reads two clocks.
func clock() time.Duration { return time.Since(clockBase) }

var clockBase = time.Now()

// observe records the latency of a call that started at clock() start.
// Nil-safe.
func (m *wireMetrics) observe(start time.Duration) {
	if m == nil {
		return
	}
	m.latency.Observe((clock() - start).Seconds())
}

// sent / received count envelope bytes. Nil-safe.
func (m *wireMetrics) sent(n int) {
	if m == nil {
		return
	}
	m.bytesOut.Add(float64(n))
}

func (m *wireMetrics) received(n int) {
	if m == nil {
		return
	}
	m.bytesIn.Add(float64(n))
}
