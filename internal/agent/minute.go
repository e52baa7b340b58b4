package agent

import (
	"context"
	"time"

	"autoglobe/internal/controller"
	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/service"
)

// MinuteStages names the stages of one control-plane minute in the order
// Minute runs them — the stage label of autoglobe_minute_stage_seconds.
var MinuteStages = [...]string{"election.tick", "report", "merge", "liveness", "decide", "proactive", "maintain"}

const (
	stageElection = iota
	stageReport
	stageMerge
	stageLiveness
	stageDecide
	stageProactive
	stageMaintain
)

// stageBuckets spans a microsecond (an idle stage of the paper's 19
// hosts) to ten seconds in half-decade steps: a median read off the
// histogram is right within a factor of three at any landscape size.
var stageBuckets = []float64{1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10}

type stageTimers [len(MinuteStages)]*obs.Histogram

// newStageTimers resolves the stage histograms once, at assembly. A nil
// registry resolves nothing: an uninstrumented manager reads no clock
// and exposes no family.
func newStageTimers(r *obs.Registry) *stageTimers {
	if r == nil {
		return nil
	}
	r.Help(MetricMinuteStage, "Duration of one control-plane minute's stages, by stage.")
	var t stageTimers
	for i, name := range MinuteStages {
		t[i] = r.Histogram(MetricMinuteStage, stageBuckets, "stage", name)
	}
	return &t
}

// lap observes the time since t as one run of the stage and returns the
// start of the next.
func (m *Manager) lap(stage int, t time.Time) time.Time {
	if m.stages == nil {
		return t
	}
	now := time.Now()
	m.stages[stage].Observe(now.Sub(t).Seconds())
	return now
}

func (m *Manager) now() (t time.Time) {
	if m.stages != nil {
		t = time.Now()
	}
	return t
}

// Demotion records one dead host's removal from the pool: the instances
// that died with it and, aligned with them, the executed restart of
// each one's service — nil where no host could take it.
type Demotion struct {
	Host     string
	Lost     []service.Instance
	Restarts []*controller.Decision
}

// MinuteReport is what one control-plane minute did. A steady minute's
// report allocates nothing.
type MinuteReport struct {
	// Demoted lists the hosts confirmed dead and unpooled this minute,
	// Repooled the demoted hosts re-admitted after their recovery streak.
	Demoted  []Demotion
	Repooled []string
	// Triggers lists the kinds of the confirmed and then the forecast
	// triggers raised, one entry each; Minute's list is the manager's
	// buffer, valid until its next call. Decisions counts the triggers
	// that ended in an executed (or queued) decision.
	Triggers  []monitor.TriggerKind
	Decisions int
}

// Minute runs one control-plane minute over the manager's plane — the
// only place the stage order exists (DESIGN.md §"The control-plane
// minute" has the table). report is the caller's stage: in-process
// agents deliver the minute's heartbeats; nil for a daemon, whose agents
// are remote. The coordinator group ticks before it, so a takeover
// redirects the reporters within the minute.
//
// Error policy: the first error ends the minute and is returned with the
// report of what ran before it; later stages do not run, and the drained
// trigger slice is recycled on every path. The caller decides what an
// error means — the simulator fails the run; the daemon logs it, reports
// unhealthy until the next clean minute and keeps ticking. A delivery
// failure inside report is not an error: a missed heartbeat is the
// signal the liveness stage consumes.
func (m *Manager) Minute(ctx context.Context, minute int, report func(ctx context.Context, minute int) error) (rep MinuteReport, err error) {
	t := m.now()
	election := m.Plane.Election()
	if election != nil {
		if err = election.Tick(ctx, minute); err != nil {
			return rep, err
		}
		t = m.lap(stageElection, t)
	}
	if report != nil {
		if err = report(ctx, minute); err != nil {
			return rep, err
		}
		t = m.lap(stageReport, t)
	}
	if election != nil && !election.LeaderAlive() {
		// Leaderless: nothing to merge, probe or decide; the agents keep
		// the minute buffered for the next takeover.
		return rep, nil
	}

	coord := m.Plane.Coordinator()
	// Transports swallow handler errors into timeouts on the agent side;
	// an ingest failure surfaces here, before its minute is closed.
	if err = coord.Err(); err != nil {
		return rep, err
	}
	if err = coord.ObserveServices(minute); err != nil {
		return rep, err
	}
	t = m.lap(stageMerge, t)

	dead, recovered := coord.CheckLiveness(ctx, minute)
	if err = m.react(minute, dead, recovered, &rep); err != nil {
		return rep, err
	}
	m.lap(stageLiveness, t)

	triggers := coord.TakeTriggers()
	rep.Triggers = m.kinds[:0]
	for _, tr := range triggers {
		rep.Triggers = append(rep.Triggers, tr.Kind)
	}
	err = m.Decide(minute, triggers, &rep)
	coord.RecycleTriggers(triggers)
	m.kinds = rep.Triggers
	if err != nil {
		return rep, err
	}

	t = m.now()
	err = m.Archive.Maintain(minute)
	m.lap(stageMaintain, t)
	return rep, err
}

// Decide is the decide and proactive stages: the confirmed triggers go
// through the controller, then the forecast scan's — after the measured
// ones, because a confirmed situation (and the protection its remedy
// raised) outranks a prediction of the same thing. Minute calls it; so
// does a loop that confirms its triggers without a plane (the in-process
// simulator).
func (m *Manager) Decide(minute int, triggers []*monitor.Trigger, rep *MinuteReport) error {
	t := m.now()
	for _, tr := range triggers {
		if err := m.decide(*tr, rep); err != nil {
			return err
		}
	}
	t = m.lap(stageDecide, t)
	for _, tr := range m.Controller.Proactive(minute) {
		rep.Triggers = append(rep.Triggers, tr.Kind)
		if err := m.decide(tr, rep); err != nil {
			return err
		}
	}
	m.lap(stageProactive, t)
	return nil
}

func (m *Manager) decide(tr monitor.Trigger, rep *MinuteReport) error {
	d, err := m.Controller.HandleTrigger(tr)
	if d != nil {
		rep.Decisions++
	}
	return err
}

// react is the liveness stage's reaction. Hosts newly confirmed dead are
// demoted; so is any host the current journal records as down that is
// still pooled — a death journaled by an incarnation that crashed before
// acting on it, re-planned once per journal (a restart or a takeover
// installs a new one). Recovered hosts are re-pooled, empty.
func (m *Manager) react(minute int, dead, recovered []string, rep *MinuteReport) error {
	if cj := m.Plane.Dispatcher().Journal(); cj != m.reconciled {
		m.reconciled = cj
		if cj != nil {
			dead = append(dead, cj.DownHosts()...)
		}
	}
	for _, host := range dead {
		if err := m.demote(host, minute, rep); err != nil {
			return err
		}
	}
	for _, host := range recovered {
		h, ok := m.lost[host]
		if !ok {
			continue // a flap absorbed before demotion: nothing to re-pool
		}
		delete(m.lost, host)
		if err := m.dep.Cluster().Add(h); err != nil {
			return err
		}
		rep.Repooled = append(rep.Repooled, host)
	}
	return nil
}

// demote removes a dead host from the pool: its instances are gone with
// it, its monitor registration is cleared (liveness keeps tracking it,
// so a healed partition can re-pool it), and the controller restarts the
// lost services elsewhere, each replacement taking over the orphaned
// sessions. The dead host's agent is never told to stop anything — it
// keeps the orphans, as a blade awaiting a reboot would. Demoting a host
// that is not pooled is a no-op.
func (m *Manager) demote(host string, minute int, rep *MinuteReport) error {
	h, ok := m.dep.Cluster().Host(host)
	if !ok {
		return nil
	}
	d := Demotion{Host: host}
	var services []string
	for _, inst := range m.dep.InstancesOn(host) {
		d.Lost = append(d.Lost, *inst)
		services = append(services, inst.Service)
		if err := m.dep.Stop(inst.ID, true); err != nil {
			return err
		}
	}
	m.lost[host] = h
	if err := m.dep.Cluster().Remove(host); err != nil {
		return err
	}
	m.Plane.Coordinator().Forget(host)

	var err error
	d.Restarts, err = m.Controller.HandleHostFailure(host, services, minute)
	for i, restart := range d.Restarts {
		if restart == nil {
			continue
		}
		// In full mobility the executor may already have rebalanced, so
		// the orphaned sessions are added rather than assigned.
		for _, inst := range m.dep.InstancesOf(restart.Service) {
			if inst.Host == restart.TargetHost {
				inst.Users += d.Lost[i].Users
				inst.Priority = d.Lost[i].Priority
				break
			}
		}
	}
	rep.Demoted = append(rep.Demoted, d)
	return err
}
