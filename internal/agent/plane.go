package agent

import (
	"context"
	"fmt"
	"time"

	"autoglobe/internal/controller"
	"autoglobe/internal/journal"
	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/rules"
	"autoglobe/internal/service"
	"autoglobe/internal/wire"
)

// PlaneConfig assembles a control plane.
type PlaneConfig struct {
	// Transport carries all control-plane traffic (required).
	Transport wire.Transport
	// Dispatch tunes the action dispatcher.
	Dispatch DispatchConfig
	// Liveness is the host liveness detector (nil: hysteresis detector
	// with timeout 2, dead after 2, alive after 2).
	Liveness *monitor.Liveness
	// Node overrides the coordinator's node name (default
	// CoordinatorNode).
	Node string
	// IngestShards is the coordinator's heartbeat ingest shard count
	// (0: DefaultIngestShards). Observation semantics are independent
	// of the count — it is purely a concurrency knob.
	IngestShards int
}

// Plane is a fully wired control plane for one deployment: the
// coordinator plus one agent per cluster host, all over one transport.
// The simulator (and cmd/autoglobe-agentd in its single-process mode)
// drives it: heartbeats flow agent → coordinator, confirmed triggers
// flow coordinator → controller, and decisions flow back through the
// dispatching executor.
type Plane struct {
	tr     wire.Transport
	coord  *Coordinator
	disp   *Dispatcher
	dep    *service.Deployment
	lms    *monitor.System
	agents map[string]*Agent

	rulesReg *rules.Registry
	ruleSwap RuleActivator

	// election, when standbys are attached, runs leader election over a
	// group of coordinators; p.coord then always points at the member
	// currently holding leadership.
	election *Election

	// HeartbeatTimeout bounds one heartbeat delivery (default 2s).
	HeartbeatTimeout time.Duration
}

// NewPlane wires a coordinator and one agent per host of the
// deployment's cluster over the configured transport. Existing
// instances are adopted into their agents' process tables.
func NewPlane(cfg PlaneConfig, dep *service.Deployment, lms *monitor.System) (*Plane, error) {
	p, err := newCoordinatorPlane(cfg, dep, lms)
	if err != nil {
		return nil, err
	}
	for _, host := range dep.Cluster().Names() {
		if err := p.AttachHost(host); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// newCoordinatorPlane wires the coordinator side only — coordinator and
// dispatcher, no in-process agents: the plane of a daemon whose agents
// are separate processes joining by hello.
func newCoordinatorPlane(cfg PlaneConfig, dep *service.Deployment, lms *monitor.System) (*Plane, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("agent: plane needs a transport")
	}
	coord, err := NewCoordinator(cfg.Node, dep, lms, cfg.Transport, cfg.Liveness)
	if err != nil {
		return nil, err
	}
	if cfg.IngestShards > 0 {
		coord.Reshard(cfg.IngestShards)
	}
	cfg.Dispatch.From = coord.Node()
	return &Plane{
		tr:               cfg.Transport,
		coord:            coord,
		disp:             NewDispatcher(cfg.Dispatch, cfg.Transport),
		dep:              dep,
		lms:              lms,
		agents:           make(map[string]*Agent),
		HeartbeatTimeout: 2 * time.Second,
	}, nil
}

// AttachHost starts an agent for the host (e.g. a hot-plugged blade)
// and adopts the instances already allocated to it.
func (p *Plane) AttachHost(host string) error {
	if _, dup := p.agents[host]; dup {
		return fmt.Errorf("agent: host %q already attached", host)
	}
	a, err := NewAgent(host, p.coord.Node(), p.tr)
	if err != nil {
		return err
	}
	for _, inst := range p.dep.InstancesOn(host) {
		a.Adopt(inst.ID, inst.Service)
	}
	p.agents[host] = a
	return nil
}

// Instrument attaches an obs registry to the plane's coordinator and
// dispatcher (heartbeat ingest, dispatch outcomes). The transport is
// instrumented by whoever owns it. Nil is a no-op.
func (p *Plane) Instrument(r *obs.Registry) {
	p.coord.Instrument(r)
	p.disp.Instrument(r)
	if p.election != nil {
		p.election.Instrument(r)
	}
}

// Trace attaches a tracer to the plane's dispatcher so per-host
// dispatch outcomes land in the open control-loop trace.
func (p *Plane) Trace(tr *obs.Tracer) {
	p.disp.Trace(tr)
}

// Coordinator returns the plane's coordinator.
func (p *Plane) Coordinator() *Coordinator { return p.coord }

// Dispatcher returns the plane's action dispatcher.
func (p *Plane) Dispatcher() *Dispatcher { return p.disp }

// Agent returns the agent of a host.
func (p *Plane) Agent(host string) (*Agent, bool) {
	a, ok := p.agents[host]
	return a, ok
}

// AttachRules connects a rule-base registry and the controller whose
// rule set pushed-and-activated bases hot-swap. Rule admin messages
// (rulePut/ruleGet/ruleList) are served from then on; activations are
// journaled when a journal is attached, and an attached journal's
// previously activated rule set is replayed immediately.
func (p *Plane) AttachRules(reg *rules.Registry, ctrl *controller.Controller) error {
	var swap RuleActivator
	if ctrl != nil {
		swap = func(e *rules.Entry) error { return ctrl.SwapRuleBase(e.Name, e.Base) }
	}
	p.rulesReg = reg
	p.ruleSwap = swap
	p.coord.AttachRules(reg, swap)
	if cj := p.disp.Journal(); cj != nil {
		return ReplayRules(cj, reg, swap)
	}
	return nil
}

// Executor wraps the inner executor with the plane's dispatching layer:
// every decision is acknowledged by the affected hosts before it is
// applied to the model.
func (p *Plane) Executor(inner controller.Executor) *DispatchExecutor {
	return NewDispatchExecutor(p.dep, inner, p.disp)
}

// AttachJournal opens (or reopens) the write-ahead action journal in
// dir and makes the plane crash-safe: the dispatcher write-ahead logs
// every action under the journal's fresh epoch, the coordinator
// journals liveness transitions, journaled dead hosts are re-seeded
// into the liveness detector (they stay demoted until they earn their
// recovery streak), and the previous incarnation's unacked dispatches
// are re-issued through the agents' idempotency caches. It returns the
// re-seeded dead hosts and how many pending actions were re-issued.
func (p *Plane) AttachJournal(ctx context.Context, dir string, opts journal.Options) (down []string, reissued int, err error) {
	cj, err := OpenCoordinatorJournal(dir, opts)
	if err != nil {
		return nil, 0, err
	}
	return p.adoptJournal(ctx, cj)
}

// adoptJournal wires an already-open journal into the plane and runs
// recovery against it.
func (p *Plane) adoptJournal(ctx context.Context, cj *CoordinatorJournal) (down []string, reissued int, err error) {
	p.disp.AttachJournal(cj)
	p.coord.AttachJournal(cj)
	for host, minute := range cj.Down() {
		p.coord.Liveness().MarkDead(host, minute)
	}
	if err := ReplayRules(cj, p.rulesReg, p.ruleSwap); err != nil {
		return nil, 0, err
	}
	down = cj.DownHosts()
	reissued, err = cj.Recover(ctx, p.disp)
	return down, reissued, err
}

// CrashCoordinator simulates a coordinator process crash and restart:
// the journal is closed mid-flight (nothing is flushed beyond what the
// write-ahead protocol already made durable), reopened from the same
// directory — bumping the epoch, so agents fence the dead incarnation's
// stragglers — and recovery re-issues the unacked dispatches. The
// agents, transport and monitor state are untouched: only the
// coordinator's volatile dispatch state dies. Returns the re-issued
// action count. It is an error if no journal is attached.
func (p *Plane) CrashCoordinator(ctx context.Context) (reissued int, err error) {
	cj := p.disp.Journal()
	if cj == nil {
		return 0, fmt.Errorf("agent: CrashCoordinator without an attached journal")
	}
	dir, opts := cj.Dir(), cj.Options()
	if err := cj.Close(); err != nil {
		return 0, err
	}
	next, err := OpenCoordinatorJournal(dir, opts)
	if err != nil {
		return 0, err
	}
	_, reissued, err = p.adoptJournal(ctx, next)
	return reissued, err
}

// Reporter returns the batching heartbeat reporter of a host's agent —
// the one, allocation-free way a host's per-minute load report is
// delivered (see HeartbeatReporter).
func (p *Plane) Reporter(host string) (*HeartbeatReporter, bool) {
	a, ok := p.agents[host]
	if !ok {
		return nil, false
	}
	return a.Reporter(), true
}
