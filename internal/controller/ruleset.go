package controller

import (
	"fmt"
	"sort"

	"autoglobe/internal/fuzzy"
	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/service"
)

// ruleSet is the immutable bundle of rule bases the controller consults:
// the per-trigger action-selection bases, the per-action server-selection
// bases, and the administrator's service-specific overrides. The
// controller holds the current set behind an atomic pointer — inference
// loads the pointer and never takes a lock, so a hot swap (a pointer
// store of a freshly built set) is invisible to the zero-alloc Infer
// fast path. A ruleSet is never mutated after construction; swaps build
// a copy-on-write successor under Controller.swapMu.
type ruleSet struct {
	action    map[monitor.TriggerKind]*fuzzy.RuleBase
	selection map[service.Action]*fuzzy.RuleBase
	services  map[string]map[monitor.TriggerKind]*fuzzy.RuleBase
}

// newRuleSet deep-copies the map structure (not the compiled rule bases,
// which are immutable and shared) so later swaps never alias caller maps.
func newRuleSet(
	action map[monitor.TriggerKind]*fuzzy.RuleBase,
	selection map[service.Action]*fuzzy.RuleBase,
	services map[string]map[monitor.TriggerKind]*fuzzy.RuleBase,
) *ruleSet {
	rs := &ruleSet{
		action:    make(map[monitor.TriggerKind]*fuzzy.RuleBase, len(action)),
		selection: make(map[service.Action]*fuzzy.RuleBase, len(selection)),
		services:  make(map[string]map[monitor.TriggerKind]*fuzzy.RuleBase, len(services)),
	}
	for k, v := range action {
		rs.action[k] = v
	}
	for k, v := range selection {
		rs.selection[k] = v
	}
	for svc, per := range services {
		inner := make(map[monitor.TriggerKind]*fuzzy.RuleBase, len(per))
		for k, v := range per {
			inner[k] = v
		}
		rs.services[svc] = inner
	}
	return rs
}

// clone builds the successor set for a copy-on-write swap.
func (rs *ruleSet) clone() *ruleSet {
	return newRuleSet(rs.action, rs.selection, rs.services)
}

// ruleBase returns the rule base for (service, trigger): the
// service-specific override if the administrator registered one, the
// trigger's default base otherwise.
func (rs *ruleSet) ruleBase(svc string, kind monitor.TriggerKind) *fuzzy.RuleBase {
	if per, ok := rs.services[svc]; ok {
		if rb, ok := per[kind]; ok {
			return rb
		}
	}
	return rs.action[kind]
}

// ruleset loads the active rule set. Never nil after New.
func (c *Controller) ruleset() *ruleSet {
	return c.rules.Load()
}

// SwapActionRules atomically replaces the action-selection rule base for
// one trigger kind. The swap is a pointer store: in-flight inferences
// finish on the set they loaded, the next trigger sees the new base, and
// the compiled zero-alloc Infer fast path is untouched. The base must
// already be parsed, validated and compiled (see the rules registry) —
// the controller rejects only structurally unusable input here.
func (c *Controller) SwapActionRules(kind monitor.TriggerKind, rb *fuzzy.RuleBase) error {
	if rb == nil {
		return fmt.Errorf("controller: nil rule base for trigger %q", kind)
	}
	if len(rb.OutputVars()) == 0 {
		return fmt.Errorf("controller: rule base %q has no output variables", rb.Name)
	}
	c.swapMu.Lock()
	defer c.swapMu.Unlock()
	next := c.rules.Load().clone()
	next.action[kind] = rb
	c.rules.Store(next)
	c.metrics.ruleSwap("action")
	return nil
}

// SwapSelectionRules atomically replaces the server-selection rule base
// for one action. Selection bases must assert the score output variable;
// a base that never scores would silently reject every host.
func (c *Controller) SwapSelectionRules(a service.Action, rb *fuzzy.RuleBase) error {
	if rb == nil {
		return fmt.Errorf("controller: nil rule base for action %q", a)
	}
	scored := false
	for _, v := range rb.OutputVars() {
		if v == VarScore {
			scored = true
			break
		}
	}
	if !scored {
		return fmt.Errorf("controller: selection rule base %q asserts no %q output", rb.Name, VarScore)
	}
	c.swapMu.Lock()
	defer c.swapMu.Unlock()
	next := c.rules.Load().clone()
	next.selection[a] = rb
	c.rules.Store(next)
	c.metrics.ruleSwap("selection")
	return nil
}

// shadowRules is a candidate overlay evaluated beside the active set:
// entries present here replace the active base for the shadow run, the
// rest of the set is shared. Immutable once installed.
type shadowRules struct {
	label     string
	action    map[monitor.TriggerKind]*fuzzy.RuleBase
	selection map[service.Action]*fuzzy.RuleBase
}

// Shadow installs a candidate rule-base overlay. On every handled
// trigger the controller re-runs action and server selection with the
// candidate entries replacing their active counterparts, diffs the
// resulting decision against the active one (action, target,
// applicability, presence) and records the outcome in the
// autoglobe_rules_shadow_* metrics and the decision tracer — without
// ever executing the shadow's decision. label identifies the candidate
// in metrics and traces (conventionally "name@version"). Passing empty
// overlays is allowed and diffs the active set against itself.
func (c *Controller) Shadow(label string,
	action map[monitor.TriggerKind]*fuzzy.RuleBase,
	selection map[service.Action]*fuzzy.RuleBase) {
	sh := &shadowRules{
		label:     label,
		action:    make(map[monitor.TriggerKind]*fuzzy.RuleBase, len(action)),
		selection: make(map[service.Action]*fuzzy.RuleBase, len(selection)),
	}
	for k, v := range action {
		sh.action[k] = v
	}
	for k, v := range selection {
		sh.selection[k] = v
	}
	c.shadow.Store(sh)
}

// shadowSet builds the effective rule set for the shadow run: the active
// set with the candidate's entries overlaid.
func (sh *shadowRules) overlay(active *ruleSet) *ruleSet {
	rs := active.clone()
	for k, v := range sh.action {
		rs.action[k] = v
	}
	for k, v := range sh.selection {
		rs.selection[k] = v
	}
	return rs
}

// shadowDecision runs the full decision pipeline — action selection,
// constraint verification, server selection — over the candidate rule
// set, with side effects suppressed: no execution, no protection, no
// events, no inference-latency samples. Returns what the candidate
// would have decided (nil: no applicable action).
func (c *Controller) shadowDecision(rs *ruleSet, tr monitor.Trigger) *Decision {
	candidates, err := c.selectActionsIn(rs, tr, false)
	if err != nil {
		return nil
	}
	for _, cand := range candidates {
		if !c.feasible(cand.Action, cand.Service, cand.InstanceID, tr.Minute) {
			continue
		}
		d, err := c.resolveIn(rs, tr, cand, false)
		if err != nil || d == nil {
			continue
		}
		return d
	}
	return nil
}

// diffDecisions names the fields on which the shadow decision disagrees
// with the active one. Both nil means full agreement; one-sided nil is a
// presence diff.
func diffDecisions(active, shadow *Decision) []string {
	if active == nil && shadow == nil {
		return nil
	}
	if (active == nil) != (shadow == nil) {
		return []string{"presence"}
	}
	var diff []string
	if active.Action != shadow.Action {
		diff = append(diff, "action")
	}
	if active.TargetHost != shadow.TargetHost {
		diff = append(diff, "target")
	}
	if active.Applicability != shadow.Applicability {
		diff = append(diff, "applicability")
	}
	sort.Strings(diff)
	return diff
}

// recordShadow evaluates the installed candidate (if any) against the
// trigger and the active path's final decision, updating the metrics
// and the open trace. Called once per handled trigger, after
// the active decision is known but computed from the pre-execution
// snapshot taken at the top of HandleTrigger.
func (c *Controller) recordShadow(active *Decision, shadow *Decision, sh *shadowRules) {
	if sh == nil {
		return
	}
	diff := diffDecisions(active, shadow)
	c.metrics.shadowEval(sh.label, diff)
	ts := obs.TraceShadow{Candidate: sh.label, Diff: diff}
	if shadow != nil {
		ts.Decision = &obs.TraceDecision{
			Action:        string(shadow.Action),
			Service:       shadow.Service,
			InstanceID:    shadow.InstanceID,
			SourceHost:    shadow.SourceHost,
			TargetHost:    shadow.TargetHost,
			Applicability: shadow.Applicability,
			HostScore:     shadow.HostScore,
		}
	}
	c.tracer.Shadow(ts)
}
