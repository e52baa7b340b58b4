package simulator

import (
	"testing"

	"autoglobe/internal/archive"
	"autoglobe/internal/chaos"
	"autoglobe/internal/wire"
)

// TestFailoverConvergesToFaultFreeLandscape is the acceptance run of
// the coordinator HA layer: a full simulated day with two hot-standby
// coordinators and a seeded fault schedule that repeatedly kills the
// leader outright and partitions it away (the split-brain drill) —
// with the landscape safety invariants asserted EVERY minute. The
// faulted run must converge to the same canonical landscape as a
// fault-free run of the identical configuration, every kill must cost
// exactly one epoch bump, the deposed-but-alive leader must be fenced
// by the epoch guard, and no host's heartbeat minute may be lost: the
// day profiles stay gap-free because agents buffer through the
// leaderless windows and the successor backfills them.
func TestFailoverConvergesToFaultFreeLandscape(t *testing.T) {
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
			dc := &DistributedConfig{
				Transport:  lb,
				Dispatch:   chaosDispatch(),
				JournalDir: t.TempDir(),
				Standbys:   2,
			}
			if drv != nil {
				dc.Chaos = drv
			}
			c.Distributed = dc
		})
		if drv != nil {
			drv.KillLeader = func(step int) (bool, error) {
				return sim.Plane().Election().KillLeader(step)
			}
			drv.Leader = sim.Plane().Election().LeaderNode
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

	// The baseline also runs with standbys attached — leadership that is
	// never contested must be invisible to the control loop.
	base, _ := run(t, nil)
	want := base.Landscape()
	if got := base.Plane().Election().Takeovers(); got != 0 {
		t.Fatalf("fault-free run elected %d successors", got)
	}

	// Leader faults only: the mixed-fault convergence is the chaos
	// test's job; this run isolates the failover machinery so the
	// gap-free profile assertion below is exact.
	profile := chaos.Profile{
		KillLeaderRate:     0.008,
		IsolateLeaderRate:  0.003,
		IsolateLeaderSteps: 4,
		QuietTail:          60,
	}
	hosts := base.Deployment().Cluster().Names()
	plan := chaos.NewPlan(11, 24*60, hosts, profile)
	sim, drv := run(t, plan)

	if drv.Remaining() != 0 {
		t.Errorf("chaos plan has %d injections left unapplied", drv.Remaining())
	}
	stats := drv.Stats()
	if stats[chaos.KindKillLeader] < 3 {
		t.Fatalf("chaos stats = %v: fewer than 3 leader kills landed — the run proves nothing", stats)
	}
	if stats[chaos.KindIsolateLeader] < 1 {
		t.Fatalf("chaos stats = %v: the split-brain drill never ran", stats)
	}

	election := sim.Plane().Election()
	takeovers := election.Takeovers()
	if takeovers < stats[chaos.KindKillLeader] {
		t.Errorf("takeovers = %d, want at least one per kill (%d)", takeovers, stats[chaos.KindKillLeader])
	}

	// Exactly one epoch bump per takeover: the initial open plus one
	// durable bump per successor, nothing double-counted, nothing lost.
	cj := sim.Plane().Dispatcher().Journal()
	if cj == nil {
		t.Fatal("failover run lost its journal")
	}
	if got, wantEpoch := cj.Epoch(), uint64(1+takeovers); got != wantEpoch {
		t.Errorf("journal epoch = %d, want %d (initial open + one per takeover)", got, wantEpoch)
	}

	// The deposed-but-alive leader was fenced, not obeyed: after its
	// partition healed, its stale-epoch announcements were rejected and
	// it stepped down.
	if got := election.FencedDepositions(); got < 1 {
		t.Errorf("fenced depositions = %d, want at least 1 from the isolation drill", got)
	}
	fenced := 0
	for _, host := range hosts {
		a, ok := sim.Plane().Agent(host)
		if !ok {
			t.Fatalf("no agent for host %q", host)
		}
		fenced += a.StaleNacks()
	}
	if fenced == 0 {
		t.Error("no agent ever rejected a stale-epoch message — the fencing path never fired")
	}

	// No heartbeat minute was lost: every host has exactly one archived
	// observation per minute of the day, including the leaderless
	// windows (buffered by the agents, backfilled by the successors).
	arch := sim.Archive()
	if err := arch.KeepProfiles(); err != nil {
		t.Fatal(err)
	}
	for _, host := range hosts {
		for m := 0; m < 24*60; m++ {
			if n := arch.Entity(archive.HostEntity(host)).ObservationCount(m); n != 1 {
				t.Fatalf("host %s minute %d has %d observations, want exactly 1 — failover lost or duplicated a heartbeat minute", host, m, n)
			}
		}
	}
	if sim.res.DemotedHosts != 0 {
		t.Errorf("failover run demoted %d hosts — leader faults must not look like host deaths", sim.res.DemotedHosts)
	}

	if got := sim.Landscape(); got != want {
		t.Errorf("failover run did not converge to the fault-free landscape\n got:\n%s\nwant:\n%s", got, want)
	}
}
