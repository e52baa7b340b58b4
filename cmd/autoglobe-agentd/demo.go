package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	"autoglobe/internal/chaos"
	"autoglobe/internal/console"
	"autoglobe/internal/obs"
	"autoglobe/internal/simulator"
	"autoglobe/internal/wire"
)

// runDemo fast-forwards the whole distributed plane in one process: the
// declared landscape runs through the simulator's distributed mode over
// the in-memory loopback, and the run ends with the control-plane panel
// and the usual result summary.
func runDemo(ctx context.Context, o options) error {
	hours, chaosSeed := o.hours, o.chaosSeed
	l, err := loadLandscape(o.landscape)
	if err != nil {
		return err
	}
	tr := wire.NewLoopback()
	defer tr.Close()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(0)
	jdir := o.journalDir
	if (chaosSeed != 0 || o.standbys > 0) && jdir == "" {
		// Crash injections need a journal to recover from (an unjournaled
		// chaos run would die at the first crash), and a standby
		// takes over by reopening the leader's journal directory.
		tmp, err := os.MkdirTemp("", "autoglobe-journal-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		jdir = tmp
	}
	var drv *chaos.Driver
	sim, err := simulator.FromLandscapeConfig(l, func(c *simulator.Config) {
		c.Hours = hours
		c.ArchiveDir = o.archiveDir
		c.ForecastHorizon = o.forecastMin
		c.RulesDir = o.rulesDir
		c.ShadowRulesDir = o.shadowDir
		c.ShadowLabel = o.shadowLabel
		dc := &simulator.DistributedConfig{Transport: tr, JournalDir: jdir, Standbys: o.standbys, LeaseTTL: o.leaseTTL}
		if chaosSeed != 0 {
			hosts := make([]string, 0, len(l.Servers))
			for _, s := range l.Servers {
				hosts = append(hosts, s.Name)
			}
			drv = chaos.NewDriver(chaos.NewPlan(chaosSeed, hours*60, hosts, chaos.DefaultProfile()), tr)
			drv.Instrument(reg)
			dc.Chaos = drv
		}
		c.Distributed = dc
		c.Obs = reg
		c.Tracer = tracer
	})
	if err != nil {
		return err
	}
	if drv != nil {
		drv.Crash = func() error {
			_, err := sim.Plane().CrashCoordinator(context.Background())
			return err
		}
		if e := sim.Plane().Election(); e != nil {
			// With standbys attached, crash injections become leader kills:
			// a standby promotes after the lease TTL instead of the same
			// incarnation restarting in place.
			drv.Crash = nil
			drv.KillLeader = func(step int) (bool, error) { return e.KillLeader(step) }
			drv.Leader = e.LeaderNode
		}
		fmt.Printf("chaos: seed %d schedules %d injections over %d minutes\n",
			chaosSeed, drv.Remaining(), hours*60)
	}
	res, err := sim.Run()
	if err != nil {
		return err
	}
	// Seal the backed archive cleanly; a no-op without -archive-dir.
	defer sim.Close()
	if drv != nil {
		fmt.Printf("chaos: applied %v\n", drv.Stats())
		if cj := sim.Plane().Dispatcher().Journal(); cj != nil {
			fmt.Printf("journal: final epoch %d (initial open + one per crash or takeover)\n", cj.Epoch())
		}
		if err := sim.CheckInvariants(true); err != nil {
			return fmt.Errorf("post-chaos invariant check: %w", err)
		}
		fmt.Println("invariants: landscape constraints hold after the fault schedule")
	}
	if e := sim.Plane().Election(); e != nil {
		fmt.Printf("election: leader %s, %d takeovers, %d fenced depositions\n",
			e.LeaderNode(), e.Takeovers(), e.FencedDepositions())
	}
	fmt.Println(console.PlaneView(sim.Deployment(), sim.Plane()))
	fmt.Println()
	fmt.Println(console.ServerView(sim.Deployment(), sim.Archive()))
	fmt.Println()
	fmt.Println(console.ObsView(reg, tracer, 10))
	fmt.Println()
	fmt.Println(res)
	if res.DemotedHosts > 0 || res.RepooledHosts > 0 {
		fmt.Printf("demoted %d hosts, re-pooled %d\n", res.DemotedHosts, res.RepooledHosts)
	}
	if o.obsAddr == "" {
		return nil
	}
	// -obs keeps the finished run inspectable: the metrics, traces and
	// health of the fast-forwarded plane stay scrapeable until
	// interrupted.
	health := obs.NewHealth()
	health.SetInfo("mode", "demo")
	srv := &http.Server{
		Addr:              o.obsAddr,
		Handler:           o.obsMux(reg, tracer, health),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
	}
	fmt.Printf("serving observability on http://%s (%s, %s, %s) — ^C to stop\n",
		o.obsAddr, obs.HealthPath, obs.MetricsPath, obs.TracesPath)
	go func() {
		<-ctx.Done()
		_ = srv.Close()
	}()
	if err := srv.ListenAndServe(); err != http.ErrServerClosed {
		return err
	}
	return nil
}
