package controller

import (
	"autoglobe/internal/archive"
	"autoglobe/internal/cluster"
	"autoglobe/internal/forecast"
	"autoglobe/internal/monitor"
)

// ForecastConfig wires the load predictor into the controller (the
// paper's Section 7 extension: "The reservations and load prediction
// can be used to improve the action and host selection process of the
// controller"). When set, Proactive scans every host and every service
// once per minute and raises forecast triggers for predicted overloads,
// so the controller scales out *before* the monitor's watchTime
// confirms a measured one.
type ForecastConfig struct {
	// Predictor supplies PredictPeak over the shared load archive.
	Predictor *forecast.Predictor
	// Horizon is how many minutes ahead the scan looks. Zero disables
	// proactive control.
	Horizon int
	// Threshold is the predicted-peak load past which a forecast
	// trigger is raised — typically the monitor's overload threshold,
	// so "predicted overload" means the same thing as a measured one.
	Threshold float64
	// MinConfidence discards predictions whose profile evidence (see
	// forecast.Predictor) is below this value. The confidence also
	// rides on the trigger, where the forecast rule bases weigh it
	// fuzzily; this is the hard floor underneath. Default 0.
	MinConfidence float64
	// RampFraction gates forecasts on the present: a trigger fires only
	// when the entity's latest measured load has already climbed past
	// RampFraction·Threshold. The day profile alone keeps "predicting"
	// yesterday's overload even after a remedy fixed it — demanding a
	// live ramp restricts the scan to situations actually unfolding,
	// so the forecast front-runs the watchTime instead of replaying
	// history. Default 0.8; negative disables the gate.
	RampFraction float64
	// Watching, when set, suppresses the proactive scan for archive
	// entities already under a monitor watch: a situation the reactive
	// pipeline is about to confirm does not need a forecast.
	Watching func(entity string) bool
}

// defaultRampFraction is the ramp gate when ForecastConfig.RampFraction
// is left zero: forecasts fire once measured load reaches 80 % of the
// overload threshold.
const defaultRampFraction = 0.8

// enabled reports whether the proactive scan is configured to run.
func (f *ForecastConfig) enabled() bool {
	return f != nil && f.Predictor != nil && f.Horizon > 0 && f.Threshold > 0
}

// scanEntity is one host or service of the proactive scan with its
// archive key built once, so a scan minute builds no strings.
type scanEntity struct {
	kind      monitor.TriggerKind
	name, key string
}

// What the scan did with one entity: the index of the per-scan totals
// and of MetricForecastScan's outcome label. The outcomes partition
// the scanned entities.
const (
	scanBelowRamp = iota // latest load under the ramp gate, or no sample
	scanProtected
	scanWatched
	scanPredicted // forecast evaluated, no trigger
	scanRaised
	numScanOutcomes
)

// scanEntities returns the scan list — hosts in cluster order, then
// services in catalog order — rebuilding it after a cluster membership
// change (the catalog is immutable). The first call subscribes to the
// cluster, so a controller that never forecasts pays nothing.
func (c *Controller) scanEntities() []scanEntity {
	if c.scan == nil {
		c.scan = make([]scanEntity, 0, c.dep.Cluster().Len()+c.dep.Catalog().Len())
		c.dep.Cluster().Watch(func(cluster.Host, bool) { c.scan = c.scan[:0] })
	}
	if len(c.scan) == 0 {
		for _, h := range c.dep.Cluster().Names() {
			c.scan = append(c.scan, scanEntity{monitor.ServerForecastOverload, h, archive.HostEntity(h)})
		}
		for _, s := range c.dep.Catalog().Names() {
			c.scan = append(c.scan, scanEntity{monitor.ServiceForecastOverload, s, archive.ServiceEntity(s)})
		}
	}
	return c.scan
}

// Proactive runs the forecast scan for one minute: every host and
// every service with running instances is checked against the
// predicted peak load over the configured horizon, and a forecast
// trigger is returned for each predicted overload. The caller feeds
// the triggers through HandleTrigger like monitor-confirmed ones; the
// dedicated serviceForecastOverload/serverForecastOverload rule bases
// pick conservative, confidence-gated remedies.
//
// Entities in protection mode and entities already under a monitor
// watch (Watching) are skipped — the first to avoid oscillation, the
// second because a measured situation in confirmation outranks a
// prediction of the same thing. The gates are pure, so they run
// cheapest and most selective first: the ramp gate is one archive
// lookup that also resolves the handle the forecast reads, and it
// turns away almost every entity of a healthy landscape.
//
// The returned slice is a controller-owned buffer, valid until the
// next Proactive call; steady-state scans allocate nothing.
func (c *Controller) Proactive(minute int) []monitor.Trigger {
	f := c.cfg.Forecast
	if !f.enabled() {
		return nil
	}
	ramp := f.RampFraction
	if ramp == 0 {
		ramp = defaultRampFraction
	}
	floor := ramp * f.Threshold
	var n [numScanOutcomes]int
	out := c.scanOut[:0]
	for _, e := range c.scanEntities() {
		if e.kind == monitor.ServiceForecastOverload && c.dep.CountOf(e.name) == 0 {
			continue // no running instance: not an entity of the scan
		}
		ent := f.Predictor.Entity(e.key)
		if latest, have := ent.Latest(); !have || latest.CPU < floor {
			n[scanBelowRamp]++
			continue
		}
		tr := monitor.Trigger{Kind: e.kind, Entity: e.name, Minute: minute, WatchedFrom: max(0, minute-f.Horizon)}
		if c.triggerProtected(tr) {
			n[scanProtected]++
			continue
		}
		if f.Watching != nil && f.Watching(e.key) {
			n[scanWatched]++
			continue
		}
		var ok bool
		tr.AvgLoad, tr.Confidence, ok = f.Predictor.PredictPeakOf(ent, minute, f.Horizon)
		if !ok || tr.AvgLoad <= f.Threshold || tr.Confidence < f.MinConfidence {
			n[scanPredicted]++
			continue
		}
		n[scanRaised]++
		out = append(out, tr)
		c.metrics.forecastTrigger(e.kind)
	}
	c.metrics.forecastScan(&n)
	c.scanOut = out
	return out
}
