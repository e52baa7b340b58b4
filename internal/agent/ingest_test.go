package agent

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"autoglobe/internal/monitor"
	"autoglobe/internal/wire"
)

// overloadCoordinator builds a coordinator over the three-host test
// deployment with a short overload watch, so two hot minutes confirm a
// serverOverloaded trigger.
func overloadCoordinator(t *testing.T) *Coordinator {
	t.Helper()
	dep := testDeployment(t)
	lms, err := monitor.NewSystem(monitor.Params{OverloadThreshold: 0.70,
		OverloadWatch: 2, IdleThresholdBase: 0.125, IdleWatch: 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorNode, dep, lms, wire.NewLoopback(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// TestMergeOrderIsCanonical is the determinism contract of the sharded
// ingest plane: whatever order heartbeats arrive in — and whatever
// shard they land in — the minute-boundary merge observes hosts in
// cluster order. Both h1 and h3 overload simultaneously; ingesting
// their beats in reverse host order must still confirm the h1 trigger
// before the h3 trigger, for any shard count.
func TestMergeOrderIsCanonical(t *testing.T) {
	for _, shards := range []int{1, 3, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			coord := overloadCoordinator(t)
			coord.SetIngestShardsForTest(shards)
			if got := len(coord.shards); got != shards {
				t.Fatalf("coordinator runs %d ingest shards, want %d", got, shards)
			}
			for minute := 0; minute <= 2; minute++ {
				// Reverse cluster order, hot h3 first.
				for _, host := range []string{"h3", "h2", "h1"} {
					cpu := 0.4
					if host == "h1" || host == "h3" {
						cpu = 0.9
					}
					if err := coord.Ingest(wire.Heartbeat{Host: host, Minute: minute, CPU: cpu}); err != nil {
						t.Fatal(err)
					}
				}
				if err := coord.ObserveServices(minute); err != nil {
					t.Fatal(err)
				}
			}
			triggers := coord.TakeTriggers()
			if len(triggers) != 2 {
				t.Fatalf("got %d triggers %v, want 2 overloads", len(triggers), triggers)
			}
			if triggers[0].Entity != "h1" || triggers[1].Entity != "h3" {
				t.Fatalf("trigger order = [%s %s], want [h1 h3] (cluster order, not arrival order)",
					triggers[0].Entity, triggers[1].Entity)
			}
			for _, tr := range triggers {
				if tr.Kind != monitor.ServerOverloaded {
					t.Fatalf("trigger %v, want serverOverloaded", tr)
				}
			}
		})
	}
}

// TestIngestRefusesNonFiniteLoads: Ingest refuses what Handle refuses —
// a NaN or infinite CPU, memory or instance load — before the host has
// a slot, a heartbeat is counted or liveness hears of it.
func TestIngestRefusesNonFiniteLoads(t *testing.T) {
	coord := overloadCoordinator(t)
	for _, hb := range []wire.Heartbeat{
		{Host: "ghost", CPU: math.NaN()},
		{Host: "ghost", CPU: 0.4, Mem: math.Inf(1)},
		{Host: "ghost", CPU: 0.4, Instances: []wire.InstanceSample{{ID: "g1", Service: "app", Load: math.Inf(-1)}}},
	} {
		if err := coord.Ingest(hb); err == nil {
			t.Fatalf("Ingest(%+v) accepted a non-finite load", hb)
		}
	}
	coord.dictMu.RLock()
	_, minted := coord.hosts["ghost"]
	coord.dictMu.RUnlock()
	if minted || coord.Heartbeats() != 0 || coord.Liveness().Tracking("ghost") {
		t.Fatalf("refused beats left a trace: slot %v, %d heartbeats, tracked %v",
			minted, coord.Heartbeats(), coord.Liveness().Tracking("ghost"))
	}
}

// TestStaleBeatDropped: after a host's minute is merged, a replayed
// older beat (redelivered HTTP POST, a loopback-held duplicate) must
// not regress the archive series.
func TestStaleBeatDropped(t *testing.T) {
	coord := overloadCoordinator(t)
	beat := func(minute int) {
		t.Helper()
		if err := coord.Ingest(wire.Heartbeat{Host: "h1", Minute: minute, CPU: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	beat(5)
	if err := coord.ObserveServices(5); err != nil {
		t.Fatal(err)
	}
	beat(3) // stale replay: silently dropped
	beat(6)
	if err := coord.ObserveServices(6); err != nil {
		t.Fatalf("stale replay leaked into the merge: %v", err)
	}
	// Within one merge window the newest beat wins; an older one does
	// not overwrite it.
	beat(8)
	beat(7)
	if err := coord.ObserveServices(8); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentIngestStress hammers the sharded ingest path from 64
// goroutines (1,000 beats each, own host per goroutine so per-host
// minute order is preserved) while the control loop concurrently
// closes minutes, drains triggers and forgets a host. Run under -race
// this covers the register/ingest/merge/collect interleavings; the
// heartbeat counter must come out exact because ingestion never drops
// a count, only coalesces observations.
func TestConcurrentIngestStress(t *testing.T) {
	const (
		workers = 64
		beats   = 1000
	)
	coord := overloadCoordinator(t)

	var producers, loop sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		producers.Add(1)
		go func(w int) {
			defer producers.Done()
			host := fmt.Sprintf("w%02d", w)
			instID := host + "-i1"
			hb := wire.Heartbeat{Host: host,
				Instances: []wire.InstanceSample{{ID: instID, Service: "app"}}}
			for m := 0; m < beats; m++ {
				hb.Minute = m
				hb.CPU = float64(m%10) / 10
				hb.Instances[0].Load = hb.CPU
				if err := coord.Ingest(hb); err != nil {
					t.Errorf("worker %d minute %d: %v", w, m, err)
					return
				}
			}
		}(w)
	}
	// The control loop ticks concurrently: merge, drain, forget. Its
	// minute counter free-runs past the producers' minutes — the merge
	// uses per-beat minutes for hosts, only the service close uses it,
	// and that one must stay monotonic (lastMinute below).
	lastMinute := 0
	loop.Add(1)
	go func() {
		defer loop.Done()
		minute := 0
		defer func() { lastMinute = minute }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := coord.ObserveServices(minute); err != nil {
				t.Errorf("observe minute %d: %v", minute, err)
				return
			}
			coord.TakeTriggers()
			if minute%97 == 0 {
				coord.Forget("w00")
			}
			minute++
		}
	}()

	// Stop the control loop only after every producer finished, so the
	// interleaving stays hot for the whole run.
	producers.Wait()
	close(stop)
	loop.Wait()

	if err := coord.ObserveServices(lastMinute + 1); err != nil {
		t.Fatal(err)
	}
	coord.TakeTriggers()
	if err := coord.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := coord.Heartbeats(), workers*beats; got != want {
		t.Fatalf("ingested %d heartbeats, want %d", got, want)
	}
}
