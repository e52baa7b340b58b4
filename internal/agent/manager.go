package agent

import (
	"context"
	"fmt"

	"autoglobe/internal/archive"
	"autoglobe/internal/cluster"
	"autoglobe/internal/controller"
	"autoglobe/internal/forecast"
	"autoglobe/internal/journal"
	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/rules"
	"autoglobe/internal/service"
	"autoglobe/internal/tsdb"
)

// Assembly names what one autonomic manager is built from — what the
// simulator's Config and agentd's flags already carried, collected so
// the wiring order exists once. It adds no tunable of its own.
type Assembly struct {
	// Plane wires coordinator and dispatcher. A nil Transport builds no
	// plane: the manager is then the plain simulator's in-process loop
	// (archive → monitor → controller), and only Decide applies.
	Plane   PlaneConfig
	Monitor monitor.Params
	// Controller: a non-nil Forecast turns the proactive scan on; its
	// Predictor, Threshold and Watching are set here, from the archive
	// and monitor this assembly builds.
	Controller controller.Config
	// Mobility selects the model executor's user policy: full mobility
	// rebalances users over a service's instances, anything else keeps
	// sessions where they are. WrapExecutor, when set, decorates that
	// executor (e.g. a federation mirror); dispatch still wraps outermost.
	Mobility     service.Mobility
	WrapExecutor func(dep *service.Deployment, exec controller.Executor) (controller.Executor, error)
	// ArchiveDir backs the load archive with the on-disk store, tuned by
	// Store (empty: in memory). JournalDir makes the plane crash-safe,
	// tuned by Journal (empty: no journal). Standbys attaches that many
	// hot-standby coordinators, tuned by Election (needs JournalDir).
	ArchiveDir string
	Store      tsdb.Options
	JournalDir string
	Journal    journal.Options
	Standbys   int
	Election   ElectionConfig
	// RulesDir seeds the rule registry and the controller's active rule
	// set; ShadowRulesDir installs a candidate overlay under ShadowLabel
	// (default "candidate").
	RulesDir, ShadowRulesDir, ShadowLabel string
	// Obs and Tracer instrument every component built here. Both may be
	// nil; observation never feeds back into the loop.
	Obs    *obs.Registry
	Tracer *obs.Tracer
}

// Manager is the assembled autonomic manager of one deployment and the
// owner of the control-plane minute (see Minute). The simulator, the
// coordinator daemon and a promoted standby all run this one value.
type Manager struct {
	Archive    *archive.Archive
	Monitor    *monitor.System
	Plane      *Plane // nil for an in-process manager
	Controller *controller.Controller
	// Rules backs the plane's rule-admin messages, seeded from RulesDir.
	Rules *rules.Registry
	// Start is the first minute to run: 0, or the minute after a
	// reopened archive's high-water mark (its appends are monotone).
	Start int
	// What adopting the journal found: the hosts restored as dead, the
	// in-flight actions re-issued, and the joined errors of those that
	// could not be. Each of those is journaled abandoned and re-planned
	// around, so a daemon logs RecoveryErr and starts; the simulator,
	// whose agents are always reachable, treats it as fatal.
	Down        []string
	Reissued    int
	RecoveryErr error

	dep *service.Deployment
	// lost holds the hosts demoted after confirmed death, kept for
	// re-pooling; reconciled is the journal whose recorded down hosts
	// have been checked against the pool (see react).
	lost       map[string]cluster.Host
	reconciled *CoordinatorJournal
	stages     *stageTimers
	kinds      []monitor.TriggerKind // MinuteReport.Triggers' recycled buffer
}

// NewManager assembles the manager of a coordinator daemon, whose agents
// are separate processes joining over the (required) transport.
func NewManager(a Assembly, dep *service.Deployment) (*Manager, error) {
	if a.Plane.Transport == nil {
		return nil, fmt.Errorf("agent: a coordinator's manager needs a transport")
	}
	return assemble(a, dep, newCoordinatorPlane)
}

// NewLocalManager assembles the simulator's manager: its plane, if a
// transport is configured, runs one in-process agent per cluster host,
// adopting the instances already allocated there.
func NewLocalManager(a Assembly, dep *service.Deployment) (*Manager, error) {
	return assemble(a, dep, NewPlane)
}

// assemble is the one wiring order. Its constraints: the archive comes
// first and decides where the clock resumes; plane and journal are
// instrumented before the journal is adopted, so the recovery a reopened
// journal runs is counted, and in-process agents exist before it
// re-issues in-flight actions to them; standbys warm-follow the journal;
// the dispatch layer wraps outermost, after WrapExecutor — hosts
// acknowledge before the model, and any mirror of it, changes; the rule
// registry attaches once controller and journal exist — the directory
// seeds the active set, then journaled activations replay over it.
func assemble(a Assembly, dep *service.Deployment, newPlane func(PlaneConfig, *service.Deployment, *monitor.System) (*Plane, error)) (m *Manager, err error) {
	m = &Manager{dep: dep, lost: make(map[string]cluster.Host), stages: newStageTimers(a.Obs)}
	if a.ArchiveDir == "" {
		m.Archive = archive.New(0)
	} else if m.Archive, err = archive.NewBacked(a.ArchiveDir, 0, a.Store); err != nil {
		return nil, err
	}
	defer func(built *Manager) {
		if err != nil {
			built.Close() // m itself is nil by now
		}
	}(m)
	m.Archive.Instrument(a.Obs)
	if last, ok := m.Archive.LastMinute(); ok {
		m.Start = last + 1
	}
	if m.Monitor, err = monitor.NewSystem(a.Monitor, m.Archive); err != nil {
		return nil, err
	}
	m.Monitor.Instrument(a.Obs)

	policy := controller.StickyUsers
	if a.Mobility == service.FullMobility {
		policy = controller.RebalanceUsers
	}
	var exec controller.Executor = controller.NewDeploymentExecutor(dep, policy)
	if a.WrapExecutor != nil {
		if exec, err = a.WrapExecutor(dep, exec); err != nil {
			return nil, err
		}
	}
	if a.Plane.Transport != nil {
		if m.Plane, err = newPlane(a.Plane, dep, m.Monitor); err != nil {
			return nil, err
		}
		m.Plane.Instrument(a.Obs)
		m.Plane.Trace(a.Tracer)
		m.Plane.Coordinator().Liveness().Instrument(a.Obs)
		if a.JournalDir != "" {
			cj, err := OpenCoordinatorJournal(a.JournalDir, a.Journal)
			if err != nil {
				return nil, err
			}
			cj.Instrument(a.Obs)
			m.Down, m.Reissued, m.RecoveryErr = m.Plane.adoptJournal(context.Background(), cj)
		}
		if a.Standbys > 0 {
			election, err := m.Plane.AttachStandbys(a.Standbys, a.Election)
			if err != nil {
				return nil, err
			}
			election.Instrument(a.Obs)
		}
		exec = m.Plane.Executor(exec)
	}

	if f := a.Controller.Forecast; f != nil {
		filled := *f
		filled.Predictor, filled.Threshold, filled.Watching = forecast.New(m.Archive), a.Monitor.OverloadThreshold, m.Monitor.Watching
		a.Controller.Forecast = &filled
	}
	if m.Controller, err = controller.New(a.Controller, dep, m.Archive, exec); err != nil {
		return nil, err
	}
	m.Controller.Instrument(a.Obs)
	m.Controller.Trace(a.Tracer)

	m.Rules = rules.New(controller.RuleVocabulary)
	if a.RulesDir != "" {
		if _, err = LoadRuleDir(m.Rules, m.Controller, a.RulesDir); err != nil {
			return nil, fmt.Errorf("agent: rules dir %s: %w", a.RulesDir, err)
		}
	}
	if m.Plane != nil {
		if err = m.Plane.AttachRules(m.Rules, m.Controller); err != nil {
			return nil, err
		}
	}
	if a.ShadowRulesDir != "" {
		action, selection, err := ShadowOverlayDir(a.ShadowRulesDir)
		if err != nil {
			return nil, fmt.Errorf("agent: shadow rules dir %s: %w", a.ShadowRulesDir, err)
		}
		label := a.ShadowLabel
		if label == "" {
			label = "candidate"
		}
		m.Controller.Shadow(label, action, selection)
	}
	return m, nil
}

// Close commits and closes the backed archive (a no-op in memory) and
// the attached journal. Abandoning a manager without Close models a
// crash: everything through the last completed minute is recovered.
func (m *Manager) Close() error {
	err := m.Archive.Close()
	if m.Plane != nil {
		if cj := m.Plane.Dispatcher().Journal(); cj != nil {
			if cerr := cj.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}
