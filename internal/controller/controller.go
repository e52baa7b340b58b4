// Package controller implements AutoGlobe's fuzzy-controller module —
// the core contribution of the paper. It consists of two cooperating
// fuzzy controllers (Section 4): action selection reacts to a confirmed
// exceptional situation and produces an ordered list of remedy actions;
// server selection picks the most suitable target host for actions that
// need one. Around the fuzzy cores sit the paper's safeguards: dedicated
// rule bases per trigger, optional service-specific rule bases,
// constraint verification before and after selection, an
// administrator-controlled applicability threshold, a protection mode
// that excludes recently touched services and servers from further
// actions ("prevents the system from oscillation, e.g., moving services
// back and forth"), and automatic versus semi-automatic execution.
package controller

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"autoglobe/internal/archive"
	"autoglobe/internal/fuzzy"
	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/placement"
	"autoglobe/internal/service"
)

// Mode selects how decisions are executed (Section 4.3).
type Mode int

const (
	// Automatic logs and immediately executes actions.
	Automatic Mode = iota
	// SemiAutomatic queues actions for administrator confirmation.
	SemiAutomatic
)

// String names the mode.
func (m Mode) String() string {
	if m == SemiAutomatic {
		return "semi-automatic"
	}
	return "automatic"
}

// Config tunes the controller.
type Config struct {
	// Mode is Automatic or SemiAutomatic.
	Mode Mode
	// Defuzzifier defaults to the paper's leftmost-maximum method.
	Defuzzifier fuzzy.Defuzzifier
	// Inference defaults to the paper's max–min method.
	Inference fuzzy.Inference
	// MinApplicability discards actions rated below this
	// administrator-controlled threshold. Default 0.30.
	MinApplicability float64
	// MinHostScore discards target hosts rated below this threshold.
	// Default 0.20.
	MinHostScore float64
	// ProtectionMinutes is how long services and servers involved in an
	// executed action are excluded from further actions. The paper uses
	// 30 minutes. Negative disables protection; 0 keeps the default.
	ProtectionMinutes int
	// ActionRules overrides the default action-selection rule bases per
	// trigger; nil entries fall back to the defaults.
	ActionRules map[monitor.TriggerKind]*fuzzy.RuleBase
	// SelectionRules overrides the default server-selection rule bases
	// per action.
	SelectionRules map[service.Action]*fuzzy.RuleBase
	// ServiceRules adds service-specific rule bases (e.g. for mission
	// critical services); when present for (service, trigger) they are
	// evaluated instead of the default base.
	ServiceRules map[string]map[monitor.TriggerKind]*fuzzy.RuleBase
	// Forecast, when set, enables the proactive scan (Section 7): the
	// controller predicts load over a horizon and raises forecast
	// triggers ahead of measured overloads. See ForecastConfig.
	Forecast *ForecastConfig
	// Notify, when set, receives every message-log event as it is
	// appended — executed actions, failures, administrator alerts. This
	// is where a deployment hooks its paging or ticketing system; the
	// paper's controller "requests human interaction by alerting the
	// system administrator".
	Notify func(Event)
}

// DefaultProtectionMinutes is the paper's protection time.
const DefaultProtectionMinutes = 30

func (c Config) withDefaults() Config {
	if c.MinApplicability == 0 {
		c.MinApplicability = 0.30
	}
	if c.MinHostScore == 0 {
		c.MinHostScore = 0.20
	}
	switch {
	case c.ProtectionMinutes == 0:
		c.ProtectionMinutes = DefaultProtectionMinutes
	case c.ProtectionMinutes < 0:
		c.ProtectionMinutes = 0
	}
	if c.ActionRules == nil {
		c.ActionRules = DefaultActionRules()
	}
	if c.SelectionRules == nil {
		c.SelectionRules = DefaultSelectionRules()
	}
	return c
}

// FiredRule records one rule that contributed to a candidate, for
// operator-facing explanations: the rule's id, its text — the rule
// base's own rendering, shared, never rendered again — and the truth it
// fired with.
type FiredRule struct {
	ID    fuzzy.RuleID
	Rule  string
	Truth float64
}

// Candidate is one entry of the ordered action list the action-selection
// controller produces.
type Candidate struct {
	Action        service.Action
	Service       string
	InstanceID    string
	Applicability float64
	// Explanation lists the rules that asserted this action, strongest
	// first — the controller's answer to "why?".
	Explanation []FiredRule
}

// Decision is a fully resolved controller action, ready for execution.
type Decision struct {
	Trigger       monitor.Trigger
	Action        service.Action
	Service       string
	InstanceID    string
	TargetHost    string // empty for actions without a target
	SourceHost    string
	Applicability float64
	HostScore     float64
	// Explanation carries the firing rules from the winning candidate.
	Explanation []FiredRule
}

// Explain renders the decision's rule provenance, one line per rule.
func (d *Decision) Explain() string {
	if len(d.Explanation) == 0 {
		return "(no rule provenance recorded)"
	}
	var sb strings.Builder
	for _, fr := range d.Explanation {
		fmt.Fprintf(&sb, "%.2f  %s\n", fr.Truth, fr.Rule)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// String renders the decision the way the paper's figures annotate
// controller actions ("Out Blade6", "In Blade5", "Move Blade11 Blade13").
func (d *Decision) String() string {
	switch d.Action {
	case service.ActionScaleOut:
		return fmt.Sprintf("Out %s (%s)", d.TargetHost, d.Service)
	case service.ActionScaleIn:
		return fmt.Sprintf("In %s (%s)", d.SourceHost, d.Service)
	case service.ActionScaleUp:
		return fmt.Sprintf("Up %s→%s (%s)", d.SourceHost, d.TargetHost, d.Service)
	case service.ActionScaleDown:
		return fmt.Sprintf("Down %s→%s (%s)", d.SourceHost, d.TargetHost, d.Service)
	case service.ActionMove:
		return fmt.Sprintf("Move %s→%s (%s)", d.SourceHost, d.TargetHost, d.Service)
	default:
		return fmt.Sprintf("%s %s on %s", d.Action, d.Service, d.SourceHost)
	}
}

// Event is one entry of the controller's message log.
type Event struct {
	Minute   int
	Decision *Decision // nil for informational events
	Note     string
	Executed bool
}

// Executor applies decisions to the managed infrastructure. The
// simulator supplies an executor implementing the scenario's user
// redistribution; a failing Execute makes the controller fall back to
// the next host and then the next action (Figure 6).
type Executor interface {
	Execute(d *Decision) error
}

// Controller supervises one deployment.
type Controller struct {
	cfg    Config
	dep    *service.Deployment
	arch   *archive.Archive
	engine *fuzzy.Engine
	exec   Executor

	// rules is the active rule set. Inference loads the pointer and never
	// takes a lock; swaps build a successor under swapMu and store it —
	// see ruleset.go.
	rules  atomic.Pointer[ruleSet]
	swapMu sync.Mutex
	// shadow is the candidate overlay evaluated beside the active set on
	// every trigger (nil: shadow mode off).
	shadow atomic.Pointer[shadowRules]

	protHost map[string]int // host -> protected until minute (exclusive)
	protSvc  map[string]int
	events   []Event
	pending  []*Decision

	// pindex is the placement feasibility index behind candidateRefs.
	// It is maintained synchronously by the deployment's and cluster's
	// mutation hooks and consults the controller's protection state at
	// query time, so it is never a second source of truth.
	pindex *placement.Index
	// hostBuf, selVec, actVec and tried are recycled hot-path buffers:
	// the candidate list, the bound input vectors of server and action
	// selection, and the exclude set of the execute-with-fallback loop.
	// The decision loop is single-goroutine, so plain reuse is safe.
	hostBuf []*placement.HostRef
	selVec  []float64
	actVec  []float64
	tried   map[string]bool
	// scan and scanOut are the proactive scan's cached entity list and
	// its recycled trigger buffer (see Proactive).
	scan    []scanEntity
	scanOut []monitor.Trigger

	metrics *controllerMetrics
	tracer  *obs.Tracer
}

// New builds a controller over the deployment, reading load data from
// the archive and executing through exec. With a forecast predictor
// configured it turns the predictor's day profiles on, and returns the
// error if they cannot be built.
func New(cfg Config, dep *service.Deployment, arch *archive.Archive, exec Executor) (*Controller, error) {
	if dep == nil {
		return nil, fmt.Errorf("controller: nil deployment")
	}
	if arch == nil {
		return nil, fmt.Errorf("controller: nil archive")
	}
	if exec == nil {
		return nil, fmt.Errorf("controller: nil executor")
	}
	if f := cfg.Forecast; f != nil && f.Predictor != nil {
		if err := f.Predictor.KeepProfiles(); err != nil {
			return nil, fmt.Errorf("controller: forecast: %w", err)
		}
	}
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg:      cfg,
		dep:      dep,
		arch:     arch,
		engine:   fuzzy.NewEngine(cfg.Defuzzifier).WithInference(cfg.Inference),
		exec:     exec,
		protHost: make(map[string]int),
		protSvc:  make(map[string]int),
	}
	c.rules.Store(newRuleSet(cfg.ActionRules, cfg.SelectionRules, cfg.ServiceRules))
	c.pindex = placement.NewIndex(dep, archive.HostEntity)
	c.pindex.SetProtection(c)
	return c, nil
}

// Events returns the controller's message log.
func (c *Controller) Events() []Event {
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// Pending returns the decisions awaiting administrator confirmation
// (semi-automatic mode).
func (c *Controller) Pending() []*Decision {
	out := make([]*Decision, len(c.pending))
	copy(out, c.pending)
	return out
}

// HostProtected reports whether the host is in protection mode at the
// given minute.
func (c *Controller) HostProtected(host string, minute int) bool {
	return c.protHost[host] > minute
}

// ServiceProtected reports whether the service is in protection mode.
func (c *Controller) ServiceProtected(svc string, minute int) bool {
	return c.protSvc[svc] > minute
}

// appendEvent records an event and notifies the configured hook.
func (c *Controller) appendEvent(e Event) {
	c.events = append(c.events, e)
	if c.cfg.Notify != nil {
		c.cfg.Notify(e)
	}
}

func (c *Controller) note(minute int, format string, args ...any) {
	c.appendEvent(Event{Minute: minute, Note: fmt.Sprintf(format, args...)})
}

// HandleTrigger runs the full Figure 6 interaction for one confirmed
// exceptional situation: action selection, constraint verification,
// server selection, execution with fallback to further hosts and
// actions. It returns the executed (or, in semi-automatic mode, queued)
// decision, or nil if no applicable remedy was found — in which case an
// administrator alert is logged.
func (c *Controller) HandleTrigger(tr monitor.Trigger) (*Decision, error) {
	c.tracer.Begin(tr.Minute, traceTrigger(tr))
	if c.triggerProtected(tr) {
		c.tracer.End(obs.OutcomeProtected, "")
		return nil, nil
	}
	// Shadow mode: evaluate the candidate rule set against the same
	// pre-execution snapshot the active set sees, so the diff compares
	// rule semantics, not execution side effects. The shadow decision is
	// never executed.
	sh := c.shadow.Load()
	var shadowD *Decision
	if sh != nil {
		shadowD = c.shadowDecision(sh.overlay(c.ruleset()), tr)
	}
	candidates, err := c.SelectActions(tr)
	if err != nil {
		c.tracer.End(obs.OutcomeError, err.Error())
		return nil, err
	}
	for _, cand := range candidates {
		// "The first action of the list is selected and verified once
		// more" — earlier candidates of the same cycle may have
		// invalidated it.
		if !c.feasible(cand.Action, cand.Service, cand.InstanceID, tr.Minute) {
			continue
		}
		d, err := c.resolve(tr, cand)
		if err != nil {
			c.tracer.End(obs.OutcomeError, err.Error())
			return nil, err
		}
		if d == nil {
			continue // no suitable host: try the next action (Figure 6)
		}
		if c.cfg.Mode == SemiAutomatic {
			c.pending = append(c.pending, d)
			c.appendEvent(Event{Minute: tr.Minute, Decision: d,
				Note: "awaiting administrator confirmation"})
			c.metrics.decision(tr.Kind, d.Action)
			c.traceDecide(d)
			c.recordShadow(d, shadowD, sh)
			c.tracer.End(obs.OutcomeQueued, "")
			return d, nil
		}
		if ok := c.execute(d); ok {
			c.metrics.decision(tr.Kind, d.Action)
			c.traceDecide(d)
			c.recordShadow(d, shadowD, sh)
			c.tracer.End(obs.OutcomeExecuted, "")
			return d, nil
		}
		// Execution failed on all hosts: fall through to the next action.
	}
	// Unremedied overloads demand human interaction; an idle situation
	// without an applicable action is merely a missed consolidation
	// opportunity and must not page anyone.
	switch tr.Kind {
	case monitor.ServerOverloaded, monitor.ServiceOverloaded:
		c.note(tr.Minute, "ALERT %s: no applicable action — administrator interaction requested", tr.String())
	}
	c.recordShadow(nil, shadowD, sh)
	c.tracer.End(obs.OutcomeNoAction, "")
	return nil, nil
}

// execute attempts the decision, retrying over alternative hosts on
// failure ("Another Host?" in Figure 6). It reports whether any attempt
// succeeded.
func (c *Controller) execute(d *Decision) bool {
	// The exclude set is recycled across calls: fallback loops run a
	// handful of times per executed decision, so a fresh map per call
	// was pure allocator churn.
	if c.tried == nil {
		c.tried = make(map[string]bool, 8)
	} else {
		clear(c.tried)
	}
	tried := c.tried
	for {
		err := c.exec.Execute(d)
		if err == nil {
			c.appendEvent(Event{Minute: d.Trigger.Minute, Decision: d, Executed: true})
			c.protect(d)
			return true
		}
		c.appendEvent(Event{Minute: d.Trigger.Minute, Decision: d,
			Note: fmt.Sprintf("execution failed: %v", err)})
		if !d.Action.NeedsTarget() {
			return false
		}
		tried[d.TargetHost] = true
		next, score := c.selectHost(d.Action, d.Service, d.InstanceID, d.Trigger.Minute, tried)
		if next == "" {
			return false
		}
		d.TargetHost, d.HostScore = next, score
	}
}

// protect puts the services and servers involved in an executed action
// into protection mode, source and target host alike, as the paper does.
// The one exception belongs to the proactive extension (Forecast set): a
// scale-out leaves its source host untouched — it only records where the
// hot instance that fired the rule sits — so that host is not protected,
// and the server-overload pipeline stays free to act there while the new
// instance is still filling up.
func (c *Controller) protect(d *Decision) {
	if c.cfg.ProtectionMinutes == 0 {
		return
	}
	until := d.Trigger.Minute + c.cfg.ProtectionMinutes
	c.protSvc[d.Service] = until
	if d.SourceHost != "" && (d.Action != service.ActionScaleOut || c.cfg.Forecast == nil) {
		c.protHost[d.SourceHost] = until
	}
	if d.TargetHost != "" {
		c.protHost[d.TargetHost] = until
	}
}

func (c *Controller) triggerProtected(tr monitor.Trigger) bool {
	switch tr.Kind {
	case monitor.ServerOverloaded, monitor.ServerIdle, monitor.ServerForecastOverload:
		return c.HostProtected(tr.Entity, tr.Minute)
	default:
		return c.ServiceProtected(tr.Entity, tr.Minute)
	}
}

// HandleFailure remedies a detected failure situation — the crash of
// the lost instance, already gone from the deployment — with a restart
// (Section 2: "failure situations like a program crash are remedied for
// example with a restart"). The restart prefers the original host; if
// that placement is no longer possible the server-selection fuzzy
// controller picks a new home. The replacement takes over the lost
// instance's sessions and priority. The executed start decision is
// returned, or nil with an administrator alert when no host can take
// the service.
func (c *Controller) HandleFailure(lost service.Instance, minute int) (*Decision, error) {
	svcName, failedHost := lost.Service, lost.Host
	if _, ok := c.dep.Catalog().Get(svcName); !ok {
		return nil, fmt.Errorf("controller: failure of unknown service %q", svcName)
	}
	c.note(minute, "failure detected: instance of %s on %s stopped responding", svcName, failedHost)
	c.tracer.Begin(minute, obs.TraceTrigger{Kind: "failure", Entity: svcName, Minute: minute})
	tr := monitor.Trigger{Kind: monitor.ServiceOverloaded, Entity: svcName,
		Minute: minute, WatchedFrom: minute}
	d := &Decision{
		Trigger:       tr,
		Action:        service.ActionStart,
		Service:       svcName,
		SourceHost:    failedHost,
		Applicability: 1, // restarts are unconditional
	}
	if err := c.dep.CanPlace(svcName, failedHost); err == nil {
		d.TargetHost, d.HostScore = failedHost, 1
	} else {
		host, score := c.selectHost(service.ActionStart, svcName, "", minute, nil)
		if host == "" {
			c.note(minute, "ALERT failure of %s on %s: no host can take a restarted instance", svcName, failedHost)
			c.tracer.End(obs.OutcomeNoAction, "no host can take a restarted instance")
			return nil, nil
		}
		d.TargetHost, d.HostScore = host, score
	}
	if !c.execute(d) {
		c.note(minute, "ALERT failure of %s on %s: restart failed on every host", svcName, failedHost)
		c.tracer.End(obs.OutcomeError, "restart failed on every host")
		return nil, nil
	}
	// In full mobility the executor may already have rebalanced, so the
	// orphaned sessions are added rather than assigned.
	for _, inst := range c.dep.InstancesOf(svcName) {
		if inst.Host == d.TargetHost {
			inst.Users += lost.Users
			inst.Priority = lost.Priority
			break
		}
	}
	c.metrics.decision("failure", d.Action)
	c.traceDecide(d)
	c.tracer.End(obs.OutcomeExecuted, "")
	return d, nil
}

// HandleHostFailure remedies a dead host: every instance lost with it
// is restarted elsewhere through HandleFailure. The caller must already
// have removed the lost instances from the deployment (they are gone —
// the host stopped answering). Returned decisions align with lost; a
// nil entry means no host could take the restart (an administrator
// alert is logged for it).
func (c *Controller) HandleHostFailure(host string, lost []service.Instance, minute int) ([]*Decision, error) {
	c.note(minute, "host failure: %s stopped responding, %d instances lost", host, len(lost))
	out := make([]*Decision, len(lost))
	for i, inst := range lost {
		d, err := c.HandleFailure(inst, minute)
		if err != nil {
			return out, err
		}
		out[i] = d
	}
	return out, nil
}

// Approve executes the i-th pending decision (semi-automatic mode).
func (c *Controller) Approve(i int) (*Decision, error) {
	if i < 0 || i >= len(c.pending) {
		return nil, fmt.Errorf("controller: no pending decision %d", i)
	}
	d := c.pending[i]
	c.pending = append(c.pending[:i], c.pending[i+1:]...)
	c.tracer.Begin(d.Trigger.Minute, traceTrigger(d.Trigger))
	if !c.feasible(d.Action, d.Service, d.InstanceID, d.Trigger.Minute) {
		c.appendEvent(Event{Minute: d.Trigger.Minute, Decision: d,
			Note: "stale pending decision discarded"})
		c.tracer.End(obs.OutcomeNoAction, "stale pending decision discarded")
		return nil, fmt.Errorf("controller: pending decision no longer feasible")
	}
	if !c.execute(d) {
		c.tracer.End(obs.OutcomeError, "execution of approved decision failed")
		return nil, fmt.Errorf("controller: execution of approved decision failed")
	}
	c.metrics.decision(d.Trigger.Kind, d.Action)
	c.traceDecide(d)
	c.tracer.End(obs.OutcomeExecuted, "")
	return d, nil
}
