package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"autoglobe/internal/agent"
	"autoglobe/internal/controller"
	"autoglobe/internal/lease"
	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/wire"
)

// coordinatorDaemon is the central autonomic manager as a process: the
// HTTP transport with the observability surface mounted on it, and the
// manager assembled over the declared landscape. Its agents are remote.
type coordinatorDaemon struct {
	o    options
	tr   *wire.HTTP
	mgr  *agent.Manager
	base string // the wire listener's base URL

	// minuteErr is the last minute's error, nil after a clean one: what
	// the "minute" health check reports between ticks.
	mu        sync.Mutex
	minuteErr error
}

// newCoordinatorDaemon loads the landscape, binds the listener and
// assembles the manager — journal recovery, archive replay and rule
// activation included — so that run only has to tick.
func newCoordinatorDaemon(o options) (*coordinatorDaemon, error) {
	l, err := loadLandscape(o.landscape)
	if err != nil {
		return nil, err
	}
	dep, err := l.BuildDeployment()
	if err != nil {
		return nil, err
	}
	d := &coordinatorDaemon{o: o, tr: wire.NewHTTP()}
	reg, tracer, health := obs.NewRegistry(), obs.NewTracer(0), obs.NewHealth()
	d.tr.DefaultListenAddr = o.listen
	d.tr.Codec = o.codec
	d.tr.Instrument(reg)
	health.SetInfo("mode", "coordinator")
	health.SetInfo("codec", o.codec.String())
	health.Register("minute", func() error {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.minuteErr
	})
	mountObs(d.tr, o.obsMux(reg, tracer, health))

	// The controller's message log is narrated as it is written.
	ctlCfg := controller.Config{Notify: func(e controller.Event) {
		fmt.Printf("minute %d: %s\n", e.Minute, renderEvent(e))
	}}
	if o.forecastMin > 0 {
		// The assembly fills in what depends on the archive and monitor.
		ctlCfg.Forecast = &controller.ForecastConfig{Horizon: o.forecastMin}
		fmt.Printf("forecast: proactive scan %d minutes ahead\n", o.forecastMin)
	}
	d.mgr, err = agent.NewManager(agent.Assembly{
		Plane:          agent.PlaneConfig{Transport: d.tr},
		Monitor:        monitor.PaperParams(),
		Controller:     ctlCfg,
		Mobility:       l.Mobility(),
		ArchiveDir:     o.archiveDir,
		JournalDir:     o.journalDir, // fsync-on-commit: the zero journal.Options
		RulesDir:       o.rulesDir,
		ShadowRulesDir: o.shadowDir,
		ShadowLabel:    o.shadowLabel,
		Obs:            reg,
		Tracer:         tracer,
	}, dep)
	if err != nil {
		d.tr.Close()
		return nil, err
	}
	plane := d.mgr.Plane
	coord := plane.Coordinator()
	coord.OnHello = func(h wire.Hello) error {
		if h.Addr != "" {
			d.tr.Register(h.Host, h.Addr)
		}
		fmt.Printf("join: %s (PI %g, %d MB) at %s\n", h.Host, h.PerformanceIndex, h.MemoryMB, h.Addr)
		return nil
	}
	d.base, _ = d.tr.Addr(coord.Node())
	health.SetInfo("node", coord.Node())

	if o.archiveDir != "" {
		fmt.Printf("archive: %s, %d entities restored, resuming at minute %d\n",
			o.archiveDir, len(d.mgr.Archive.Entities()), d.mgr.Start)
	}
	if cj := plane.Dispatcher().Journal(); cj != nil {
		// Recovery already ran: the previous incarnation's in-flight
		// actions were answered from agent idempotency caches if they had
		// applied, or rejected on route errors until the agents rejoin —
		// which journals the abandonment for the controller to re-plan.
		if len(d.mgr.Down) > 0 {
			fmt.Printf("journal: hosts %v restored as down\n", d.mgr.Down)
		}
		if d.mgr.RecoveryErr != nil {
			fmt.Fprintf(os.Stderr, "journal recovery: %v\n", d.mgr.RecoveryErr)
		}
		fmt.Printf("journal: %s at epoch %d, %d in-flight actions re-issued, %d rule activations restored\n",
			o.journalDir, cj.Epoch(), d.mgr.Reissued, len(cj.ActiveRules()))
		health.SetInfo("epoch", fmt.Sprintf("%d", cj.Epoch()))
	}
	if o.rulesDir != "" {
		fmt.Printf("rules: %d versions loaded from %s\n", len(d.mgr.Rules.List()), o.rulesDir)
	}
	if o.shadowDir != "" {
		fmt.Printf("shadow: candidate %q from %s evaluated alongside the active rules\n", o.shadowLabel, o.shadowDir)
	}
	return d, nil
}

// close releases the listener, the journal and the archive.
func (d *coordinatorDaemon) close() {
	d.tr.Close()
	d.mgr.Close()
}

// run advances one control-plane minute per interval until ctx is
// cancelled. A minute's error is logged and fails the "minute" health
// check until the next clean minute; the daemon keeps ticking.
func (d *coordinatorDaemon) run(ctx context.Context) error {
	fmt.Printf("coordinator listening on %s (%s), one minute every %v\n", d.o.listen, d.base, d.o.interval)
	fmt.Printf("observability: %s%s, %s%s, %s%s\n", d.base, obs.HealthPath, d.base, obs.MetricsPath, d.base, obs.TracesPath)
	ticker := time.NewTicker(d.o.interval)
	defer ticker.Stop()
	plane := d.mgr.Plane
	for minute := d.mgr.Start; ; minute++ {
		select {
		case <-ctx.Done():
			fmt.Println("\nshutting down")
			return nil
		case <-ticker.C:
		}
		rep, err := d.mgr.Minute(ctx, minute, nil)
		d.mu.Lock()
		d.minuteErr = err
		d.mu.Unlock()
		if err != nil {
			fmt.Fprintf(os.Stderr, "minute %d: %v\n", minute, err)
		}
		for _, h := range rep.Repooled {
			fmt.Printf("minute %d: host %s recovered, re-pooled\n", minute, h)
		}
		st := plane.Dispatcher().Stats()
		fmt.Printf("minute %d: %d heartbeats, %d actions (%d retries, %d nacks)\n",
			minute, plane.Coordinator().Heartbeats(), st.Actions, st.Retries, st.Nacks)
	}
}

// runCoordinator is the coordinator daemon: it listens for hellos and
// heartbeats and runs the manager's minute once per interval.
func runCoordinator(ctx context.Context, o options) error {
	d, err := newCoordinatorDaemon(o)
	if err != nil {
		return err
	}
	defer d.close()
	return d.run(ctx)
}

func renderEvent(e controller.Event) string {
	if e.Decision != nil {
		return fmt.Sprintf("%s [executed=%v] %s", e.Decision, e.Executed, e.Note)
	}
	return e.Note
}

// runStandby is the hot-standby coordinator daemon: it checks the
// acting leader's health endpoint once per interval, warm-replays the
// leader's journal from shared storage so its view of the in-flight
// actions stays current, and — when the leader has been unreachable
// for the lease TTL — promotes itself by running the full coordinator
// over the same journal directory. The promotion reopens the journal
// under a bumped epoch, so the agents' epoch guard fences any
// straggling messages from the deposed incarnation; safety rests on
// that fencing, the lease only decides when to move. The standby's
// -listen address should sit behind the shared coordinator address
// (VIP or DNS) so the agents' hello retry reconnects them, and
// co-located standbys should stagger -lease-ttl so exactly one
// promotes first.
func runStandby(ctx context.Context, o options) error {
	interval, journalDir := o.interval, o.journalDir
	tracker := lease.NewTracker(o.leaseTTL)
	client := &http.Client{Timeout: interval / 2}
	healthURL := o.standbyOf + obs.HealthPath
	check := func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, healthURL, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("leader unhealthy: %s", resp.Status)
		}
		return nil
	}

	fmt.Printf("standby: watching %s, lease TTL %d intervals of %v, journal %s\n",
		o.standbyOf, tracker.TTL(), interval, journalDir)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var lastEpoch uint64
	lastPending := -1
	for tick := 0; ; tick++ {
		select {
		case <-ctx.Done():
			fmt.Println("\nshutting down")
			return nil
		case <-ticker.C:
		}
		if err := check(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "standby: leader check: %v\n", err)
		} else {
			tracker.Renew(tick, 0)
		}
		// Follow the leader's durable state between checks: the replay is
		// read-only and torn-tail tolerant, so it is safe against a leader
		// that is still appending.
		if ls, err := agent.WarmReplay(journalDir); err != nil {
			fmt.Fprintf(os.Stderr, "standby: warm replay: %v\n", err)
		} else if ls.Epoch != lastEpoch || len(ls.Pending) != lastPending {
			fmt.Printf("standby: following epoch %d, %d in-flight actions, %d hosts down\n",
				ls.Epoch, len(ls.Pending), len(ls.Down))
			lastEpoch, lastPending = ls.Epoch, len(ls.Pending)
		}
		if !tracker.Expired(tick) {
			continue
		}
		fmt.Printf("standby: lease expired after %d silent intervals — promoting over %s\n",
			tracker.TTL(), journalDir)
		ticker.Stop()
		return runCoordinator(ctx, o)
	}
}
