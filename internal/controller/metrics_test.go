package controller

import (
	"strings"
	"testing"

	"autoglobe/internal/archive"
	"autoglobe/internal/fuzzy"
	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/service"
)

// overloadedWeakHost reproduces the paper's central example setup: an
// overloaded app instance on a weak host with plenty of spare capacity
// elsewhere, so HandleTrigger resolves and executes a scale-up.
func overloadedWeakHost(t *testing.T, tb *testbed) *service.Instance {
	t.Helper()
	inst, err := tb.dep.Start("app", "weak1")
	if err != nil {
		t.Fatal(err)
	}
	tb.record(t, archive.HostEntity("weak1"), 0.90, 0.4)
	tb.record(t, archive.InstanceEntity(inst.ID), 0.85, 0.4)
	tb.record(t, archive.ServiceEntity("app"), 0.55, 0.4)
	for _, h := range []string{"weak2", "mid1", "mid2", "big1", "big2"} {
		tb.record(t, archive.HostEntity(h), 0.10, 0.1)
	}
	return inst
}

// TestControllerInstrumentation asserts the decision counter (labels
// sorted: action before trigger), a non-zero inference-latency count,
// and a sealed trace carrying rule provenance from Decision.Explain.
func TestControllerInstrumentation(t *testing.T) {
	tb := newTestbed(t, Config{})
	r := obs.NewRegistry()
	tr := obs.NewTracer(8)
	tb.ctl.Instrument(r)
	tb.ctl.Trace(tr)
	overloadedWeakHost(t, tb)

	d, err := tb.ctl.HandleTrigger(trigger(monitor.ServiceOverloaded, "app"))
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.Action != service.ActionScaleUp {
		t.Fatalf("decision = %+v, want scaleUp", d)
	}

	snap := r.Snapshot()
	key := `autoglobe_controller_decisions_total{action="scaleUp",trigger="serviceOverloaded"}`
	if snap[key] != 1 {
		t.Errorf("snapshot[%s] = %v, want 1", key, snap[key])
	}
	// Action selection ran once per instance and host selection once per
	// candidate host; every run must land in the latency histogram: one
	// instance and four hosts, the count the before-and-after clock reads
	// of PR 22 gave, now that a selection reads the clock once a host.
	if n := snap[MetricInference+"_count"]; n != 5 {
		t.Errorf("inference count = %v, want 5", n)
	}
	// One observation per selection, never per host.
	if n, sum := snap[MetricSelectionCandidates+"_count"], snap[MetricSelectionCandidates+"_sum"]; n != 1 || sum != 4 {
		t.Errorf("selection candidates: %v selections of %v hosts, want 1 of 4", n, sum)
	}

	traces := tr.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tc := traces[0]
	if tc.Outcome != obs.OutcomeExecuted {
		t.Errorf("outcome = %q, want %q", tc.Outcome, obs.OutcomeExecuted)
	}
	if tc.Trigger.Kind != string(monitor.ServiceOverloaded) || tc.Trigger.Entity != "app" {
		t.Errorf("trace trigger = %+v", tc.Trigger)
	}
	if tc.Decision == nil {
		t.Fatal("trace has no decision")
	}
	if tc.Decision.Action != string(service.ActionScaleUp) {
		t.Errorf("trace decision action = %q, want scaleUp", tc.Decision.Action)
	}
	if tc.Decision.TargetHost == "" {
		t.Error("trace decision has no target host")
	}
	if !strings.Contains(tc.Decision.Provenance, "IF") {
		t.Errorf("provenance carries no rule text: %q", tc.Decision.Provenance)
	}
}

// TestControllerTraceOutcomes covers the non-executed outcomes: a
// protected entity and a semi-automatic queue.
func TestControllerTraceOutcomes(t *testing.T) {
	t.Run("protected", func(t *testing.T) {
		tb := newTestbed(t, Config{})
		tr := obs.NewTracer(8)
		tb.ctl.Trace(tr)
		overloadedWeakHost(t, tb)
		// The first trigger executes and installs protection; the second,
		// within the protection window, is traced as protected.
		if d, err := tb.ctl.HandleTrigger(trigger(monitor.ServiceOverloaded, "app")); err != nil || d == nil {
			t.Fatalf("first trigger: d=%v err=%v", d, err)
		}
		second := trigger(monitor.ServiceOverloaded, "app")
		second.Minute = 15
		if _, err := tb.ctl.HandleTrigger(second); err != nil {
			t.Fatal(err)
		}
		traces := tr.Snapshot()
		if len(traces) != 2 || traces[1].Outcome != obs.OutcomeProtected {
			t.Fatalf("traces = %+v, want executed then protected", traces)
		}
	})
	t.Run("queued", func(t *testing.T) {
		tb := newTestbed(t, Config{Mode: SemiAutomatic})
		r := obs.NewRegistry()
		tr := obs.NewTracer(8)
		tb.ctl.Instrument(r)
		tb.ctl.Trace(tr)
		overloadedWeakHost(t, tb)
		d, err := tb.ctl.HandleTrigger(trigger(monitor.ServiceOverloaded, "app"))
		if err != nil {
			t.Fatal(err)
		}
		// Semi-automatic mode returns the queued (not executed) decision.
		if d == nil || d.Action != service.ActionScaleUp {
			t.Fatalf("queued decision = %+v, want scaleUp", d)
		}
		traces := tr.Snapshot()
		if len(traces) != 1 || traces[0].Outcome != obs.OutcomeQueued {
			t.Fatalf("traces = %+v, want one queued", traces)
		}
		if traces[0].Decision == nil || traces[0].Decision.Provenance == "" {
			t.Error("queued trace lost its decision provenance")
		}
		key := `autoglobe_controller_decisions_total{action="scaleUp",trigger="serviceOverloaded"}`
		if got := r.Snapshot()[key]; got != 1 {
			t.Errorf("queued decision not counted: %v", got)
		}
	})
}

// TestShadowEvaluationIsUnobserved: a shadow evaluation infers and
// selects like the active path but reads no clock and counts no
// candidates — the histograms of a controller with a shadow rule set
// equal those of one without.
func TestShadowEvaluationIsUnobserved(t *testing.T) {
	counts := func(shadow bool) (inferences, selections float64) {
		tb, _ := hotbed(t, Config{})
		r := obs.NewRegistry()
		tb.ctl.Instrument(r)
		if shadow {
			tb.ctl.Shadow("serviceOverloaded@candidate",
				map[monitor.TriggerKind]*fuzzy.RuleBase{monitor.ServiceOverloaded: scaleOutOnly(t)}, nil)
		}
		if _, err := tb.ctl.HandleTrigger(trigger(monitor.ServiceOverloaded, "app")); err != nil {
			t.Fatal(err)
		}
		if st := tb.ctl.ShadowStats(); shadow && st.Evals != 1 {
			t.Fatalf("ShadowStats = %+v, want 1 eval", st)
		}
		snap := r.Snapshot()
		return snap[MetricInference+"_count"], snap[MetricSelectionCandidates+"_count"]
	}
	wantInf, wantSel := counts(false)
	gotInf, gotSel := counts(true)
	if wantInf == 0 || wantSel == 0 || gotInf != wantInf || gotSel != wantSel {
		t.Errorf("with a shadow: %v inferences, %v selections observed; without: %v, %v",
			gotInf, gotSel, wantInf, wantSel)
	}
}
