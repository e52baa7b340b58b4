package controller

import (
	"strings"
	"sync"
	"testing"

	"autoglobe/internal/archive"
	"autoglobe/internal/fuzzy"
	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/service"
)

// hotbed builds a testbed with an overloaded app instance on a weak
// host, the situation of the paper's flagship scale-up rule.
func hotbed(t *testing.T, cfg Config) (*testbed, *service.Instance) {
	t.Helper()
	tb := newTestbed(t, cfg)
	inst, err := tb.dep.Start("app", "weak1")
	if err != nil {
		t.Fatal(err)
	}
	tb.record(t, archive.HostEntity("weak1"), 0.90, 0.4)
	tb.record(t, archive.InstanceEntity(inst.ID), 0.85, 0.4)
	tb.record(t, archive.ServiceEntity("app"), 0.55, 0.4)
	tb.record(t, archive.HostEntity("mid1"), 0.10, 0.1)
	tb.record(t, archive.HostEntity("mid2"), 0.10, 0.1)
	tb.record(t, archive.HostEntity("big1"), 0.05, 0.1)
	tb.record(t, archive.HostEntity("big2"), 0.05, 0.1)
	return tb, inst
}

// scaleOutOnly is a rule base that can only ever propose scale-out — a
// deliberate perturbation of the default serviceOverloaded base.
func scaleOutOnly(t *testing.T) *fuzzy.RuleBase {
	t.Helper()
	rb, err := fuzzy.NewRuleBase("serviceOverloaded", ActionVocabulary(),
		fuzzy.MustParse(`IF instanceLoad IS high THEN scaleOut IS applicable`))
	if err != nil {
		t.Fatal(err)
	}
	return rb
}

func TestSelectActionsUnknownServiceError(t *testing.T) {
	tb, inst := hotbed(t, Config{})
	// Model catalog drift: the instance's service vanishes from the
	// catalog underneath the controller (e.g. a catalog reload racing an
	// in-flight trigger).
	inst.Service = "ghost"
	_, err := tb.ctl.SelectActions(trigger(monitor.ServerOverloaded, "weak1"))
	if err == nil {
		t.Fatal("SelectActions with unknown service succeeded; want descriptive error")
	}
	if !strings.Contains(err.Error(), "ghost") || !strings.Contains(err.Error(), inst.ID) {
		t.Errorf("error %q does not name the instance and service", err)
	}
}

func TestSwapActionRulesChangesDecision(t *testing.T) {
	tb, _ := hotbed(t, Config{})
	tr := trigger(monitor.ServiceOverloaded, "app")
	cands, err := tb.ctl.SelectActions(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 || cands[0].Action != service.ActionScaleUp {
		t.Fatalf("default top candidate = %+v, want scaleUp", cands)
	}
	if err := tb.ctl.SwapActionRules(monitor.ServiceOverloaded, scaleOutOnly(t)); err != nil {
		t.Fatal(err)
	}
	cands, err = tb.ctl.SelectActions(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Action != service.ActionScaleOut {
			t.Fatalf("after swap candidate %+v, want only scaleOut", c)
		}
	}
	if len(cands) == 0 {
		t.Fatal("no candidates after swap")
	}
}

func TestSwapIdenticalBaseKeepsDecisions(t *testing.T) {
	tb, _ := hotbed(t, Config{})
	tr := trigger(monitor.ServiceOverloaded, "app")
	before, err := tb.ctl.SelectActions(tr)
	if err != nil {
		t.Fatal(err)
	}
	// A freshly parsed-and-compiled base from the identical source.
	src := DefaultRuleSources()["serviceOverloaded"]
	rb, err := fuzzy.NewRuleBase("serviceOverloaded", ActionVocabulary(), fuzzy.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.ctl.SwapActionRules(monitor.ServiceOverloaded, rb); err != nil {
		t.Fatal(err)
	}
	after, err := tb.ctl.SelectActions(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("candidate count changed: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i].Action != after[i].Action ||
			before[i].InstanceID != after[i].InstanceID ||
			before[i].Applicability != after[i].Applicability {
			t.Fatalf("candidate %d changed: %+v -> %+v", i, before[i], after[i])
		}
	}
}

func TestSwapValidation(t *testing.T) {
	tb, _ := hotbed(t, Config{})
	if err := tb.ctl.SwapActionRules(monitor.ServiceOverloaded, nil); err == nil {
		t.Error("nil action base accepted")
	}
	if err := tb.ctl.SwapSelectionRules(service.ActionMove, nil); err == nil {
		t.Error("nil selection base accepted")
	}
	// A selection base that never asserts score would reject every host.
	noScore, err := fuzzy.NewRuleBase("select/move", SelectionVocabulary(), fuzzy.MustParse(
		`IF cpuLoad IS low THEN cpuLoad IS low`))
	if err == nil {
		if err := tb.ctl.SwapSelectionRules(service.ActionMove, noScore); err == nil {
			t.Error("scoreless selection base accepted")
		}
	}
	if err := tb.ctl.SwapRuleBase("nosuchbase", scaleOutOnly(t)); err == nil {
		t.Error("unroutable rule-base name accepted")
	}
}

// TestSelectionBaseWithoutScore: only SwapSelectionRules rejects a
// selection base that asserts no score, so one can still arrive through
// Config.SelectionRules. It rates every candidate host 0, and no host
// reaches the threshold.
func TestSelectionBaseWithoutScore(t *testing.T) {
	noScore, err := fuzzy.NewRuleBase("select/placement", SelectionVocabulary(),
		fuzzy.MustParse(`IF cpuLoad IS low THEN memLoad IS high`))
	if err != nil {
		t.Fatal(err)
	}
	sel := DefaultSelectionRules()
	sel[service.ActionScaleOut] = noScore
	tb, inst := hotbed(t, Config{SelectionRules: sel})
	b := binderFor(noScore)
	vec := make([]float64, len(b.slots))
	refs := tb.ctl.candidateRefs(nil, service.ActionScaleOut, "app", inst.ID, 10, nil)
	if len(refs) == 0 {
		t.Fatal("no candidate hosts for scale-out")
	}
	for _, ref := range refs {
		if score, ok := tb.ctl.scoreRef(b, vec, ref); !ok || score != 0 {
			t.Errorf("%s scores %v (ok %v), want 0", ref.Host.Name, score, ok)
		}
	}
	if h, score := tb.ctl.SelectHost(service.ActionScaleOut, "app", inst.ID, 10); h != "" {
		t.Errorf("selected %s at %v, want no host", h, score)
	}
}

func TestSwapRuleBaseRouting(t *testing.T) {
	tb, _ := hotbed(t, Config{})
	if err := tb.ctl.SwapRuleBase("serviceOverloaded", scaleOutOnly(t)); err != nil {
		t.Fatal(err)
	}
	sel, err := fuzzy.NewRuleBase("select/placement", SelectionVocabulary(),
		fuzzy.MustParse(`IF cpuLoad IS low THEN score IS applicable`))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.ctl.SwapRuleBase("select/placement", sel); err != nil {
		t.Fatal(err)
	}
	// Placement serves both scale-out and start.
	rs := tb.ctl.ruleset()
	if rs.selection[service.ActionScaleOut] != sel || rs.selection[service.ActionStart] != sel {
		t.Fatal("placement swap did not reach both scaleOut and start")
	}
}

// TestSwapUnderConcurrentInference hammers hot swaps while the
// controller keeps inferring — the atomic-pointer discipline must hold
// under the race detector.
func TestSwapUnderConcurrentInference(t *testing.T) {
	tb, _ := hotbed(t, Config{ProtectionMinutes: -1})
	tr := trigger(monitor.ServiceOverloaded, "app")
	fresh := func() *fuzzy.RuleBase {
		rb, err := fuzzy.NewRuleBase("serviceOverloaded", ActionVocabulary(),
			fuzzy.MustParse(DefaultRuleSources()["serviceOverloaded"]))
		if err != nil {
			t.Error(err)
		}
		return rb
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := tb.ctl.SwapActionRules(monitor.ServiceOverloaded, fresh()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 300; i++ {
		if _, err := tb.ctl.SelectActions(tr); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestShadowDiffsPerturbedBase(t *testing.T) {
	tb, _ := hotbed(t, Config{})
	reg := obs.NewRegistry()
	tb.ctl.Instrument(reg)
	tracer := obs.NewTracer(16)
	tb.ctl.Trace(tracer)

	depBefore := tb.dep.Instances()
	tb.ctl.Shadow("serviceOverloaded@candidate",
		map[monitor.TriggerKind]*fuzzy.RuleBase{monitor.ServiceOverloaded: scaleOutOnly(t)}, nil)

	d, err := tb.ctl.HandleTrigger(trigger(monitor.ServiceOverloaded, "app"))
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.Action != service.ActionScaleUp {
		t.Fatalf("active decision = %+v, want scaleUp (shadow must not influence it)", d)
	}
	if evals, diffs := shadowCounts(reg, "serviceOverloaded@candidate"); evals != 1 || diffs[`"action"`] != 1 {
		t.Fatalf("shadow counters: %v evals, diffs by field %v; want 1 eval, 1 action diff", evals, diffs)
	}
	// The shadow's scale-out was never executed: exactly the scale-up's
	// new instance appeared, no extra one.
	if len(tb.dep.Instances()) != len(depBefore) {
		t.Fatalf("instance count changed by %d; the scale-up moves, the shadow must not add",
			len(tb.dep.Instances())-len(depBefore))
	}
	// Trace carries the shadow record.
	traces := tracer.Snapshot()
	if len(traces) != 1 || traces[0].Shadow == nil {
		t.Fatalf("trace shadow record missing: %+v", traces)
	}
	sh := traces[0].Shadow
	if sh.Candidate != "serviceOverloaded@candidate" || len(sh.Diff) == 0 {
		t.Fatalf("shadow trace = %+v", sh)
	}
	if sh.Decision == nil || sh.Decision.Action != string(service.ActionScaleOut) {
		t.Fatalf("shadow decision = %+v, want scaleOut", sh.Decision)
	}
}

func TestShadowIdenticalBaseAgrees(t *testing.T) {
	tb, _ := hotbed(t, Config{})
	reg := obs.NewRegistry()
	tb.ctl.Instrument(reg)
	src := DefaultRuleSources()["serviceOverloaded"]
	rb, err := fuzzy.NewRuleBase("serviceOverloaded", ActionVocabulary(), fuzzy.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	tb.ctl.Shadow("serviceOverloaded@same",
		map[monitor.TriggerKind]*fuzzy.RuleBase{monitor.ServiceOverloaded: rb}, nil)
	if _, err := tb.ctl.HandleTrigger(trigger(monitor.ServiceOverloaded, "app")); err != nil {
		t.Fatal(err)
	}
	if evals, diffs := shadowCounts(reg, "serviceOverloaded@same"); evals != 1 || len(diffs) != 0 {
		t.Fatalf("shadow counters: %v evals, diffs by field %v; want 1 eval, no diffs", evals, diffs)
	}
}

// shadowCounts reads the candidate's autoglobe_rules_shadow_* counters:
// its evaluations, and its diffs keyed by the quoted field label.
func shadowCounts(reg *obs.Registry, candidate string) (evals float64, diffs map[string]float64) {
	diffs = make(map[string]float64)
	prefix := MetricShadowDiffs + `{candidate="` + candidate + `",field=`
	snap := reg.Snapshot()
	for key, v := range snap {
		if field, ok := strings.CutPrefix(key, prefix); ok {
			diffs[strings.TrimSuffix(field, "}")] = v
		}
	}
	return snap[MetricShadowEvals+`{candidate="`+candidate+`"}`], diffs
}

// TestInferZeroAllocAfterSwap is the hot-swap allocation guardrail: a
// freshly swapped-in rule base must serve steady-state inference at
// zero allocations per op, exactly like a process-lifetime base — the
// swap is a pointer store, not a recompilation on the hot path.
func TestInferZeroAllocAfterSwap(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	tb, _ := hotbed(t, Config{})
	rb, err := fuzzy.NewRuleBase("serviceOverloaded", ActionVocabulary(),
		fuzzy.MustParse(DefaultRuleSources()["serviceOverloaded"]))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.ctl.SwapActionRules(monitor.ServiceOverloaded, rb); err != nil {
		t.Fatal(err)
	}
	swapped := tb.ctl.ruleset().ruleBase("app", monitor.ServiceOverloaded)
	if swapped != rb {
		t.Fatal("swap did not install the new base")
	}
	in := map[string]float64{
		VarCPULoad: 0.9, VarMemLoad: 0.4, VarPerformanceIndex: 1,
		VarInstanceLoad: 0.85, VarServiceLoad: 0.55,
		VarInstancesOnServer: 1, VarInstancesOfService: 1,
	}
	vec := vecOf(swapped, in)
	for i := 0; i < 3; i++ { // warm the pools
		res, err := tb.ctl.engine.InferVec(swapped, vec)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	allocs := testing.AllocsPerRun(200, func() {
		res, err := tb.ctl.engine.InferVec(swapped, vec)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	})
	if allocs != 0 {
		t.Errorf("inference after hot swap allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSelectHostFallbackExplicit pins the satellite-3 semantics: start
// borrows the placement base, every other action with no registered
// base selects no host and is counted.
func TestSelectHostFallbackExplicit(t *testing.T) {
	sel := DefaultSelectionRules()
	delete(sel, service.ActionMove)
	delete(sel, service.ActionStart)
	tb, inst := hotbed(t, Config{SelectionRules: sel})
	reg := obs.NewRegistry()
	tb.ctl.Instrument(reg)

	// Start has no base of its own: placement serves it.
	host, score := tb.ctl.selectHost(service.ActionStart, "app", "", 10, nil)
	if host == "" || score <= 0 {
		t.Fatalf("start did not fall back to placement: host=%q score=%v", host, score)
	}
	if got := reg.Counter(MetricRuleFallback, "action", string(service.ActionStart)).Value(); got != 0 {
		t.Fatalf("start fallback counted as a miss: %v", got)
	}

	// Move has no base: no silent placement substitution.
	host, _ = tb.ctl.selectHost(service.ActionMove, "app", inst.ID, 10, nil)
	if host != "" {
		t.Fatalf("move with no rule base selected host %q", host)
	}
	if got := reg.Counter(MetricRuleFallback, "action", string(service.ActionMove)).Value(); got != 1 {
		t.Fatalf("move miss count = %v, want 1", got)
	}
}

func TestSelectHostFallbackVisibleInTrace(t *testing.T) {
	sel := DefaultSelectionRules()
	delete(sel, service.ActionMove)
	tb, inst := hotbed(t, Config{SelectionRules: sel})
	tracer := obs.NewTracer(16)
	tb.ctl.Trace(tracer)
	tracer.Begin(10, obs.TraceTrigger{Kind: "serverOverloaded", Entity: "weak1", Minute: 10})
	tb.ctl.selectHost(service.ActionMove, "app", inst.ID, 10, nil)
	tracer.End(obs.OutcomeNoAction, "")
	traces := tracer.Snapshot()
	if len(traces) != 1 || !strings.Contains(traces[0].Note, "no selection rule base for move") {
		t.Fatalf("fallback not visible in trace: %+v", traces)
	}
}
