package controller

import (
	"fmt"
	"strings"
	"sync"

	"autoglobe/internal/fuzzy"
	"autoglobe/internal/monitor"
	"autoglobe/internal/service"
)

// The default action-selection rule bases, one per trigger (Section 4.1:
// "our controller is able to handle dedicated rule bases for different
// exceptional situations"). Together with the server-selection rules
// below they comprise the size of rule base the paper reports ("about 40
// rules"). Administrators can extend or override them per service via
// Config.ServiceRules.

// serviceOverloadedRules react to a service whose instances run hot.
const serviceOverloadedRules = `
# The paper's flagship pair (Section 3): a hot instance on a weak or
# medium host is moved up; on an already powerful host a new instance is
# started instead.
IF instanceLoad IS high AND (performanceIndex IS low OR performanceIndex IS medium) THEN scaleUp IS applicable
IF instanceLoad IS high AND performanceIndex IS high THEN scaleOut IS applicable

# All instances of the service are loaded: more capacity is needed no
# matter how powerful the hosts are.
IF serviceLoad IS high THEN scaleOut IS applicable
IF serviceLoad IS high AND instancesOfService IS few THEN scaleOut IS applicable

# The instance itself is fine but its host is crowded by other services:
# relocate to an equivalent host.
IF cpuLoad IS high AND instanceLoad IS medium AND instancesOnServer IS NOT low THEN move IS applicable
IF cpuLoad IS high AND instanceLoad IS low AND instancesOnServer IS high THEN move IS applicable

# Memory pressure calls for a bigger host.
IF memLoad IS high AND (performanceIndex IS low OR performanceIndex IS medium) THEN scaleUp IS applicable

# A moderately overloaded mission path can be bridged by priority.
IF instanceLoad IS high AND serviceLoad IS medium AND instancesOfService IS many THEN increasePriority IS applicable
`

// serviceIdleRules react to a service whose instances are underused.
// Deliberately conservative: the paper's controller keeps instances
// alive through the quiet night ("if the controller does not stop too
// many instances, the load can be distributed across a sufficient
// number of instances, and overload situations can be avoided") and
// only removes them when the count is clearly excessive or the host is
// contended.
const serviceIdleRules = `
# Clearly more instances than the service will ever need: shrink.
IF serviceLoad IS low AND instancesOfService IS many THEN scaleIn IS applicable

# An idle instance on a busy host frees capacity by leaving.
IF instanceLoad IS low AND cpuLoad IS high AND instancesOfService IS NOT few THEN scaleIn IS applicable
IF instanceLoad IS low AND cpuLoad IS medium AND instancesOfService IS many THEN scaleIn IS applicable

# An idle instance wasting a powerful host yields it to heavier tenants.
IF instanceLoad IS low AND performanceIndex IS high AND cpuLoad IS NOT low THEN scaleDown IS applicable

# A broadly idle service keeps its instances but steps out of the way.
IF serviceLoad IS low AND instancesOfService IS few THEN reducePriority IS applicable
`

// serverOverloadedRules are evaluated once per service running on the
// overloaded host; the controller collects the candidates of all of them
// (Figure 7).
const serverOverloadedRules = `
# The dominating service on a weak host: move it somewhere stronger.
IF cpuLoad IS high AND instanceLoad IS high AND (performanceIndex IS low OR performanceIndex IS medium) THEN scaleUp IS applicable

# The dominating service on an already powerful host: spread the load
# over an additional instance.
IF cpuLoad IS high AND instanceLoad IS high AND performanceIndex IS high THEN scaleOut IS applicable
IF cpuLoad IS high AND instanceLoad IS high AND serviceLoad IS high THEN scaleOut IS applicable

# Mid-sized tenants can be relocated to equivalent hosts.
IF cpuLoad IS high AND instanceLoad IS medium THEN move IS applicable
IF memLoad IS high AND instanceLoad IS NOT low THEN move IS applicable

# A small tenant whose service clearly has spare capacity elsewhere is
# stopped to protect the host from continuous overload (the "In Blade5"
# episode of Figure 16). The instance itself must be lightly loaded —
# stopping a hot instance would just dump its users on equally hot
# peers.
IF cpuLoad IS high AND instanceLoad IS low AND serviceLoad IS NOT high AND instancesOfService IS NOT few THEN scaleIn IS applicable

# Crowded host: shed the small tenants.
IF cpuLoad IS high AND instancesOnServer IS high AND instanceLoad IS low THEN move IS applicable

# Last resort on an overloaded host: deprioritize background work.
IF cpuLoad IS high AND instanceLoad IS low AND instancesOfService IS few THEN reducePriority IS applicable
`

// serverIdleRules consolidate work away from underused hosts, again
// without tearing down the instance pool the next morning will need:
// packing every idle instance onto few hosts at night buys nothing (the
// blades are pooled anyway) and creates contention at the eight-o'clock
// login rush.
const serverIdleRules = `
# The host is idle and the service clearly has instances to spare.
IF cpuLoad IS low AND instanceLoad IS low AND instancesOfService IS many THEN scaleIn IS applicable

# A powerful host held by a tenant with real but modest load that would
# fit on smaller hardware. Truly idle tenants stay put: they cost the
# big host nothing and will be needed where they are in the morning.
IF cpuLoad IS low AND performanceIndex IS high AND instanceLoad IS medium THEN scaleDown IS applicable
`

// serviceForecastOverloadRules react to a *predicted* service overload
// (Section 7: load forecasting feeding the controller). They fire
// before any monitor confirms a measured overload, so they are gated on
// the forecast's confidence: solid profile evidence buys real capacity
// ahead of the ramp, thin evidence at most a reversible priority bump.
const serviceForecastOverloadRules = `
# The forecast sees the ramp coming and the profile evidence is solid:
# add an instance before the watchTime would even start counting.
IF forecastLoad IS high AND forecastConfidence IS high THEN scaleOut IS applicable

# A hot instance on weak hardware is better moved up ahead of the rush
# than after it.
IF forecastLoad IS high AND forecastConfidence IS high AND instanceLoad IS high AND (performanceIndex IS low OR performanceIndex IS medium) THEN scaleUp IS applicable

# Thin evidence (gappy profile): only a priority bump — cheap and
# reversible — and only if the service already carries real load.
IF forecastLoad IS high AND forecastConfidence IS low AND serviceLoad IS NOT low THEN increasePriority IS applicable
`

// serverForecastOverloadRules react to a predicted host overload,
// evaluated once per service on the host like the reactive base. Unlike
// the reactive base they never migrate on a mere prediction: proactive
// control allocates capacity in advance (a new instance elsewhere
// drains sessions gently through re-logins and the login rush), whereas
// a speculative move dumps a loaded instance — users and all — onto
// another host, and its protection window then mutes the reactive
// remedy if the guess was wrong. Only the dominating, already-hot
// tenant warrants acting ahead of the peak.
const serverForecastOverloadRules = `
# The dominating tenant of a predicted-hot host spreads over an
# additional instance ahead of the peak.
IF forecastLoad IS high AND forecastConfidence IS high AND instanceLoad IS high THEN scaleOut IS applicable

# On weak hardware the dominating tenant is moved up while stronger
# hosts still have cheap capacity.
IF forecastLoad IS high AND forecastConfidence IS high AND instanceLoad IS high AND (performanceIndex IS low OR performanceIndex IS medium) THEN scaleUp IS applicable
`

// Server-selection rule bases (Section 4.2), one per action family:
// "our controller is able to handle different rule bases for different
// actions. With these rules we determine how proper a server is for the
// problem." Candidate hosts are pre-filtered in code (constraints,
// protection mode, performance-index relation for scale-up/-down/move);
// the rules rank the survivors.

// placementRules score targets for scale-out and start: prefer lightly
// loaded hosts with headroom; powerful hosts win ties.
const placementRules = `
IF cpuLoad IS low AND memLoad IS low THEN score IS applicable
IF cpuLoad IS low AND memLoad IS medium THEN score IS applicable
IF cpuLoad IS medium AND memLoad IS low AND instancesOnServer IS low THEN score IS applicable
IF cpuLoad IS high THEN score IS notApplicable
IF memLoad IS high THEN score IS notApplicable
IF instancesOnServer IS high THEN score IS notApplicable
IF tempSpace IS scarce THEN score IS notApplicable
`

// scaleUpRules score targets for scale-up: the candidate set already
// contains only strictly more powerful hosts; among them prefer fast,
// roomy, lightly loaded ones.
const scaleUpRules = `
IF cpuLoad IS low AND memLoad IS NOT high THEN score IS applicable
IF cpuLoad IS low AND numberOfCpus IS many THEN score IS applicable
IF cpuLoad IS low AND cpuClock IS fast THEN score IS applicable
IF cpuLoad IS medium AND performanceIndex IS high AND memLoad IS low THEN score IS applicable
IF cpuLoad IS high THEN score IS notApplicable
IF memLoad IS high THEN score IS notApplicable
IF swapSpace IS small AND memLoad IS medium THEN score IS notApplicable
`

// scaleDownRules score targets for scale-down: among the strictly less
// powerful candidates prefer ones that are still comfortably idle, so
// the relocated instance does not immediately re-trigger an overload.
const scaleDownRules = `
IF cpuLoad IS low AND memLoad IS low THEN score IS applicable
IF cpuLoad IS low AND instancesOnServer IS low THEN score IS applicable
IF cpuLoad IS medium THEN score IS notApplicable
IF cpuLoad IS high THEN score IS notApplicable
IF memLoad IS high THEN score IS notApplicable
`

// moveRules score equivalently powerful targets.
const moveRules = `
IF cpuLoad IS low AND memLoad IS low THEN score IS applicable
IF cpuLoad IS low AND memLoad IS medium AND instancesOnServer IS low THEN score IS applicable
IF cpuLoad IS medium AND instancesOnServer IS low AND memLoad IS low THEN score IS applicable
IF cpuLoad IS high THEN score IS notApplicable
IF memLoad IS high THEN score IS notApplicable
IF instancesOnServer IS high THEN score IS notApplicable
`

// The default rule bases are parsed and compiled exactly once per
// process: every simulator run builds a controller, and sweeps build
// hundreds of simulators, so re-parsing the ~40 rules per construction
// used to dominate controller setup (see BenchmarkRuleParsing).
// RuleBases are immutable and safe for concurrent use, so sharing them
// across controllers — including the parallel sweep engine's workers —
// is sound.
var (
	defaultActionOnce  sync.Once
	defaultActionBases map[monitor.TriggerKind]*fuzzy.RuleBase

	defaultSelectionOnce  sync.Once
	defaultSelectionBases map[service.Action]*fuzzy.RuleBase
)

// DefaultActionRules returns the built-in action-selection rule bases,
// one per trigger kind. The rule bases themselves are parsed, validated
// and compiled once per process and shared; the returned map is a fresh
// copy, so callers may add or replace entries freely.
func DefaultActionRules() map[monitor.TriggerKind]*fuzzy.RuleBase {
	defaultActionOnce.Do(func() {
		vc := ActionVocabulary()
		defaultActionBases = map[monitor.TriggerKind]*fuzzy.RuleBase{
			monitor.ServiceOverloaded: fuzzy.MustRuleBase("serviceOverloaded", vc, fuzzy.MustParse(serviceOverloadedRules)),
			monitor.ServiceIdle:       fuzzy.MustRuleBase("serviceIdle", vc, fuzzy.MustParse(serviceIdleRules)),
			monitor.ServerOverloaded:  fuzzy.MustRuleBase("serverOverloaded", vc, fuzzy.MustParse(serverOverloadedRules)),
			monitor.ServerIdle:        fuzzy.MustRuleBase("serverIdle", vc, fuzzy.MustParse(serverIdleRules)),

			monitor.ServiceForecastOverload: fuzzy.MustRuleBase("serviceForecastOverload", vc, fuzzy.MustParse(serviceForecastOverloadRules)),
			monitor.ServerForecastOverload:  fuzzy.MustRuleBase("serverForecastOverload", vc, fuzzy.MustParse(serverForecastOverloadRules)),
		}
		for _, rb := range defaultActionBases {
			rb.Compile()
		}
	})
	out := make(map[monitor.TriggerKind]*fuzzy.RuleBase, len(defaultActionBases))
	for k, rb := range defaultActionBases {
		out[k] = rb
	}
	return out
}

// DefaultSelectionRules returns the built-in server-selection rule
// bases, one per target-requiring action. Like DefaultActionRules, the
// rule bases are parsed and compiled once per process; the map is a
// fresh copy per call.
func DefaultSelectionRules() map[service.Action]*fuzzy.RuleBase {
	defaultSelectionOnce.Do(func() {
		vc := SelectionVocabulary()
		placement := fuzzy.MustRuleBase("select/placement", vc, fuzzy.MustParse(placementRules))
		defaultSelectionBases = map[service.Action]*fuzzy.RuleBase{
			service.ActionScaleOut:  placement,
			service.ActionStart:     placement,
			service.ActionScaleUp:   fuzzy.MustRuleBase("select/scaleUp", vc, fuzzy.MustParse(scaleUpRules)),
			service.ActionScaleDown: fuzzy.MustRuleBase("select/scaleDown", vc, fuzzy.MustParse(scaleDownRules)),
			service.ActionMove:      fuzzy.MustRuleBase("select/move", vc, fuzzy.MustParse(moveRules)),
		}
		for _, rb := range defaultSelectionBases {
			rb.Compile()
		}
	})
	out := make(map[service.Action]*fuzzy.RuleBase, len(defaultSelectionBases))
	for k, rb := range defaultSelectionBases {
		out[k] = rb
	}
	return out
}

// Registry glue: the versioned rule registry (internal/rules) stores
// rule bases by name; these helpers map names to the controller's swap
// points and vocabularies. Action bases are named after their trigger
// kind ("serviceOverloaded"); server-selection bases live under
// "select/" ("select/placement", "select/scaleUp", …).

// selectionRulePrefix marks server-selection rule bases by name
// (mirrors rules.SelectionPrefix without importing the package).
const selectionRulePrefix = "select/"

// RuleVocabulary maps a registry rule-base name to the vocabulary its
// rules are validated against — the VocabFunc a rules.Registry for this
// controller is built with.
func RuleVocabulary(name string) *fuzzy.Vocabulary {
	if strings.HasPrefix(name, selectionRulePrefix) {
		return SelectionVocabulary()
	}
	return ActionVocabulary()
}

// DefaultRuleSources returns the built-in rule sources by registry
// name — the seed content of a fresh rules directory, and the baseline
// fuzzyc diffs candidates against.
func DefaultRuleSources() map[string]string {
	return map[string]string{
		"serviceOverloaded":       serviceOverloadedRules,
		"serviceIdle":             serviceIdleRules,
		"serverOverloaded":        serverOverloadedRules,
		"serverIdle":              serverIdleRules,
		"serviceForecastOverload": serviceForecastOverloadRules,
		"serverForecastOverload":  serverForecastOverloadRules,
		"select/placement":        placementRules,
		"select/scaleUp":          scaleUpRules,
		"select/scaleDown":        scaleDownRules,
		"select/move":             moveRules,
	}
}

// TriggerForRuleBase maps an action rule-base name to the trigger kind
// it is swapped in for. Reports false for selection bases and unknown
// names.
func TriggerForRuleBase(name string) (monitor.TriggerKind, bool) {
	switch monitor.TriggerKind(name) {
	case monitor.ServiceOverloaded, monitor.ServiceIdle,
		monitor.ServerOverloaded, monitor.ServerIdle,
		monitor.ServiceForecastOverload, monitor.ServerForecastOverload:
		return monitor.TriggerKind(name), true
	}
	return "", false
}

// ActionsForRuleBase maps a selection rule-base name to the actions it
// scores targets for ("select/placement" serves both scale-out and
// start — both place a fresh instance). Reports nil for action bases
// and unknown names.
func ActionsForRuleBase(name string) []service.Action {
	switch name {
	case "select/placement":
		return []service.Action{service.ActionScaleOut, service.ActionStart}
	case "select/scaleUp":
		return []service.Action{service.ActionScaleUp}
	case "select/scaleDown":
		return []service.Action{service.ActionScaleDown}
	case "select/move":
		return []service.Action{service.ActionMove}
	}
	return nil
}

// SwapRuleBase routes a compiled rule base from the registry to the
// controller's matching swap point by name. Unknown names are an error
// — a rules directory holding a base nothing answers to must fail the
// load rather than be accepted and dropped.
func (c *Controller) SwapRuleBase(name string, rb *fuzzy.RuleBase) error {
	if kind, ok := TriggerForRuleBase(name); ok {
		return c.SwapActionRules(kind, rb)
	}
	if acts := ActionsForRuleBase(name); acts != nil {
		for _, a := range acts {
			if err := c.SwapSelectionRules(a, rb); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("controller: no swap point for rule base %q", name)
}

// RuleCount returns the total number of rules across all default rule
// bases — the paper's controller "currently comprises about 40 rules".
func RuleCount() int {
	n := 0
	for _, rb := range DefaultActionRules() {
		n += rb.Len()
	}
	seen := map[*fuzzy.RuleBase]bool{}
	for _, rb := range DefaultSelectionRules() {
		if !seen[rb] {
			seen[rb] = true
			n += rb.Len()
		}
	}
	return n
}
