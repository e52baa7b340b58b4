package simulator

import (
	"context"
	"testing"
	"time"

	"autoglobe/internal/agent"
	"autoglobe/internal/chaos"
	"autoglobe/internal/wire"
)

// chaosDispatch is a dispatcher configuration that retries eagerly
// without wall-clock sleeps, so a 24-hour chaos run finishes in
// milliseconds while still exercising the full retry/backoff paths.
func chaosDispatch() agent.DispatchConfig {
	return agent.DispatchConfig{
		Timeout:     time.Millisecond,
		BaseBackoff: time.Microsecond,
		MaxBackoff:  time.Microsecond,
		Sleep:       func(time.Duration) {},
	}
}

// TestChaosConvergesToFaultFreeLandscape is the acceptance run of the
// robustness harness: a full simulated day over the distributed control
// plane, with a seeded fault schedule injecting coordinator crashes
// (journal recovery + epoch bump), duplicated deliveries, held and
// late-released messages, and short partitions — and the landscape
// safety invariants asserted EVERY minute. After the quiet tail the
// faulted run must converge to the same canonical landscape as a
// fault-free run of the identical configuration: the faults were fully
// absorbed, not merely survived.
func TestChaosConvergesToFaultFreeLandscape(t *testing.T) {
	run := func(t *testing.T, plan []chaos.Injection) (*Simulator, *chaos.Driver) {
		t.Helper()
		lb := wire.NewLoopback()
		t.Cleanup(func() { lb.Close() })
		var drv *chaos.Driver
		if plan != nil {
			drv = chaos.NewDriver(plan, lb)
		}
		sim := declaredSim(t, func(c *Config) {
			tuneForActions(c)
			dc := &DistributedConfig{Transport: lb, Dispatch: chaosDispatch()}
			if drv != nil {
				dc.JournalDir = t.TempDir()
				dc.Chaos = drv
			}
			c.Distributed = dc
		})
		if drv != nil {
			drv.Crash = func() error {
				_, err := sim.Plane().CrashCoordinator(context.Background())
				return err
			}
		}
		minutes := 24 * 60
		for m := 0; m < minutes; m++ {
			if err := sim.Step(m); err != nil {
				t.Fatalf("minute %d: %v", m, err)
			}
			if err := sim.CheckInvariants(false); err != nil {
				t.Fatalf("minute %d: %v", m, err)
			}
		}
		if err := sim.CheckInvariants(true); err != nil {
			t.Fatalf("strict invariants at end of run: %v", err)
		}
		return sim, drv
	}

	base, _ := run(t, nil)
	want := base.Landscape()

	hosts := base.Deployment().Cluster().Names()
	plan := chaos.NewPlan(11, 24*60, hosts, chaos.DefaultProfile())
	sim, drv := run(t, plan)

	if drv.Remaining() != 0 {
		t.Errorf("chaos plan has %d injections left unapplied", drv.Remaining())
	}
	stats := drv.Stats()
	if stats[chaos.KindCrash] == 0 {
		t.Fatalf("chaos stats = %v: the plan crashed the coordinator zero times — the run proves nothing", stats)
	}
	total := 0
	for _, n := range stats {
		total += n
	}
	if total < 20 {
		t.Fatalf("chaos stats = %v: only %d injections over a full day", stats, total)
	}

	// Every crash reopened the journal under a fresh epoch.
	cj := sim.Plane().Dispatcher().Journal()
	if cj == nil {
		t.Fatal("chaos run lost its journal")
	}
	if got, wantEpoch := cj.Epoch(), uint64(1+stats[chaos.KindCrash]); got != wantEpoch {
		t.Errorf("journal epoch = %d, want %d (initial open + one per crash)", got, wantEpoch)
	}

	if got := sim.Landscape(); got != want {
		t.Errorf("faulted run did not converge to the fault-free landscape\n got:\n%s\nwant:\n%s", got, want)
	}
}
