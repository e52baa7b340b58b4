package controller

import (
	"time"

	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/service"
)

// Metric families the controller emits.
const (
	// MetricDecisions counts resolved decisions by trigger kind and
	// selected action. Queued (semi-automatic) and executed decisions
	// both count — the controller decided either way.
	MetricDecisions = "autoglobe_controller_decisions_total"
	// MetricInference is the latency of one fuzzy inference run with its
	// input gathering (action selection per instance, server selection
	// per candidate host scored, memo hits included): each loop reads the
	// clock twice and observes its runs at their mean.
	MetricInference = "autoglobe_controller_inference_seconds"
	// MetricSelectionCandidates is the number of candidate hosts one
	// server selection scored — what a selection's cost is linear in.
	MetricSelectionCandidates = "autoglobe_controller_selection_candidate_hosts"
	// MetricForecastTriggers counts triggers raised by the proactive
	// forecast scan, by trigger kind — decisions they lead to land in
	// MetricDecisions like any other.
	MetricForecastTriggers = "autoglobe_controller_forecast_triggers_total"
	// MetricForecastScan counts the entities the proactive scan looked
	// at by outcome: below_ramp, protected or watched (the first gate, in
	// that order, that turned the entity away), else predicted (forecast
	// evaluated, no trigger) or raised. The outcomes partition a scan's
	// entities: hosts plus services with a running instance.
	MetricForecastScan = "autoglobe_controller_forecast_scan_entities_total"
	// MetricRuleSwaps counts hot swaps of the active rule set, by layer
	// (action, selection).
	MetricRuleSwaps = "autoglobe_rules_swaps_total"
	// MetricRuleFallback counts server selections that found no rule
	// base registered for the action (only start silently shares the
	// scale-out placement base; every other miss selects no host and
	// lands here).
	MetricRuleFallback = "autoglobe_rules_fallback_total"
	// MetricShadowEvals counts shadow evaluations of a candidate rule
	// set, by candidate label.
	MetricShadowEvals = "autoglobe_rules_shadow_evals_total"
	// MetricShadowDiffs counts shadow evaluations that disagreed with
	// the active decision, by candidate label and disagreeing field.
	MetricShadowDiffs = "autoglobe_rules_shadow_diffs_total"
	// MetricPlacementHosts and MetricPlacementShapes gauge the placement
	// index: pooled hosts, and distinct constraint shapes in the catalog
	// (the index's size is their product, in bits).
	MetricPlacementHosts  = "autoglobe_placement_index_hosts"
	MetricPlacementShapes = "autoglobe_placement_index_shapes"
	// MetricPlacementRefreshes counts host-column recomputations since
	// Instrument: one per host an executed action touches or a pool adds.
	MetricPlacementRefreshes = "autoglobe_placement_index_refreshes_total"
)

// scanOutcomeLabels are MetricForecastScan's outcome label values,
// indexed by the scan outcome constants (scanBelowRamp … scanRaised).
var scanOutcomeLabels = [numScanOutcomes]string{"below_ramp", "protected", "watched", "predicted", "raised"}

// controllerMetrics holds the registry for the dynamic decision labels
// and the pre-resolved inference histogram. Nil-safe.
type controllerMetrics struct {
	reg        *obs.Registry
	inference  *obs.Histogram
	candidates *obs.Histogram
	// The proactive scan's counters, resolved on first use and kept: a
	// registry lookup renders labels and allocates, the scan must not.
	scan        [numScanOutcomes]*obs.Counter
	forecastTrg map[monitor.TriggerKind]*obs.Counter
}

func newControllerMetrics(r *obs.Registry) *controllerMetrics {
	if r == nil {
		return nil
	}
	r.Help(MetricDecisions, "Controller decisions, by trigger kind and action.")
	r.Help(MetricInference, "Latency of one fuzzy inference run with its input gathering, each loop of runs observed at its mean.")
	r.Help(MetricSelectionCandidates, "Candidate hosts scored by one server selection.")
	r.Help(MetricForecastTriggers, "Proactive forecast triggers raised, by trigger kind.")
	r.Help(MetricForecastScan, "Entities looked at by the proactive forecast scan, by outcome.")
	r.Help(MetricRuleSwaps, "Hot swaps of the active rule set, by layer.")
	r.Help(MetricRuleFallback, "Server selections with no rule base registered for the action.")
	r.Help(MetricShadowEvals, "Shadow evaluations of a candidate rule set, by candidate.")
	r.Help(MetricShadowDiffs, "Shadow evaluations disagreeing with the active decision, by candidate and field.")
	r.Help(MetricPlacementHosts, "Hosts pooled in the placement index.")
	r.Help(MetricPlacementShapes, "Distinct constraint shapes in the placement index.")
	r.Help(MetricPlacementRefreshes, "Host feasibility columns recomputed by the placement index.")
	return &controllerMetrics{
		reg:       r,
		inference: r.Histogram(MetricInference, obs.LatencySecondsBuckets()),
		// 1 … 2^18 hosts in powers of four.
		candidates: r.Histogram(MetricSelectionCandidates, []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144}),

		forecastTrg: make(map[monitor.TriggerKind]*obs.Counter, 2),
	}
}

// decision counts one resolved decision. The (trigger, action) space is
// small and bounded, so the registry lookup per decision is fine —
// decisions happen at most a few times per minute.
func (m *controllerMetrics) decision(kind monitor.TriggerKind, action service.Action) {
	if m == nil {
		return
	}
	m.reg.Counter(MetricDecisions, "action", string(action), "trigger", string(kind)).Inc()
}

// forecastTrigger counts one trigger raised by the proactive scan.
func (m *controllerMetrics) forecastTrigger(kind monitor.TriggerKind) {
	if m == nil {
		return
	}
	ctr := m.forecastTrg[kind]
	if ctr == nil {
		ctr = m.reg.Counter(MetricForecastTriggers, "trigger", string(kind))
		m.forecastTrg[kind] = ctr
	}
	ctr.Inc()
}

// forecastScan adds one proactive scan's per-outcome entity totals,
// accumulated locally by the scan, once per Proactive call.
func (m *controllerMetrics) forecastScan(n *[numScanOutcomes]int) {
	if m == nil {
		return
	}
	for o, v := range n {
		if v == 0 {
			continue
		}
		if m.scan[o] == nil {
			m.scan[o] = m.reg.Counter(MetricForecastScan, "outcome", scanOutcomeLabels[o])
		}
		m.scan[o].Add(float64(v))
	}
}

// ruleSwap counts one hot swap of the active rule set.
func (m *controllerMetrics) ruleSwap(layer string) {
	if m == nil {
		return
	}
	m.reg.Counter(MetricRuleSwaps, "layer", layer).Inc()
}

// ruleFallback counts one server selection that found no rule base for
// its action.
func (m *controllerMetrics) ruleFallback(a service.Action) {
	if m == nil {
		return
	}
	m.reg.Counter(MetricRuleFallback, "action", string(a)).Inc()
}

// shadowEval counts one shadow evaluation and, when the candidate
// disagreed, one diff per disagreeing field.
func (m *controllerMetrics) shadowEval(candidate string, diff []string) {
	if m == nil {
		return
	}
	m.reg.Counter(MetricShadowEvals, "candidate", candidate).Inc()
	for _, field := range diff {
		m.reg.Counter(MetricShadowDiffs, "candidate", candidate, "field", field).Inc()
	}
}

// inferences records the *n inference runs of a loop that began at
// start and ends now, each at the loop's mean: one clock read and two
// atomics however long the loop. Deferred by the loop's owner, it reads
// n when the loop is done. The call sites guard against a nil m.
func (m *controllerMetrics) inferences(start time.Time, n *int) {
	if *n > 0 {
		m.inference.ObserveN(time.Since(start).Seconds()/float64(*n), uint64(*n))
	}
}

// Instrument attaches an obs registry: resolved decisions are counted
// by trigger and action, and every fuzzy inference run lands in a
// latency histogram; the placement index reports its size and refresh
// count. A nil registry leaves the controller uninstrumented.
func (c *Controller) Instrument(r *obs.Registry) {
	c.metrics = newControllerMetrics(r)
	c.pindex.Instrument(r.Gauge(MetricPlacementHosts), r.Gauge(MetricPlacementShapes), r.Counter(MetricPlacementRefreshes))
}

// Trace attaches a tracer: HandleTrigger (and the failure handlers)
// open one trace per iteration, attach the resolved decision with its
// rule provenance from Decision.Explain, and seal it with the outcome.
// The dispatcher appends per-host dispatch events to the same open
// trace in distributed mode.
func (c *Controller) Trace(tr *obs.Tracer) {
	c.tracer = tr
}

// traceTrigger flattens a monitor trigger for the trace stream.
func traceTrigger(tr monitor.Trigger) obs.TraceTrigger {
	return obs.TraceTrigger{
		Kind:        string(tr.Kind),
		Entity:      tr.Entity,
		Minute:      tr.Minute,
		AvgLoad:     tr.AvgLoad,
		WatchedFrom: tr.WatchedFrom,
		Resource:    tr.Resource,
	}
}

// traceDecide attaches a resolved decision (with provenance) to the
// open trace. Called again after host fallback: the sealed trace
// reports what finally happened.
func (c *Controller) traceDecide(d *Decision) {
	if c.tracer == nil || d == nil {
		return
	}
	c.tracer.Decide(obs.TraceDecision{
		Action:        string(d.Action),
		Service:       d.Service,
		InstanceID:    d.InstanceID,
		SourceHost:    d.SourceHost,
		TargetHost:    d.TargetHost,
		Applicability: d.Applicability,
		HostScore:     d.HostScore,
		Provenance:    d.Explain(),
	})
}
