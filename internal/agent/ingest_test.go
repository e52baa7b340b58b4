package agent

import (
	"context"
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

// TestMergeOrderIsCanonical is the determinism contract of the ingest
// plane: whatever order heartbeats arrive in, the minute-boundary merge
// observes hosts in cluster order. Both h1 and h3 overload
// simultaneously; ingesting their beats in reverse host order must still
// confirm the h1 trigger before the h3 trigger. shards=N deals each
// minute's beats round-robin over N concurrent senders: one sender is
// the fixed reverse order, more leave the arrival order to the
// scheduler, and the one ingest lock must serialise any of them into
// the same transcript.
func TestMergeOrderIsCanonical(t *testing.T) {
	hosts := []string{"h3", "h2", "h1"} // reverse cluster order, hot h3 first
	for _, shards := range []int{1, 3, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			coord := overloadCoordinator(t)
			for minute := 0; minute <= 2; minute++ {
				var wg sync.WaitGroup
				errs := make(chan error, len(hosts))
				for lane := 0; lane < shards; lane++ {
					wg.Add(1)
					go func(lane int) {
						defer wg.Done()
						for i := lane; i < len(hosts); i += shards {
							cpu := 0.4
							if hosts[i] == "h1" || hosts[i] == "h3" {
								cpu = 0.9
							}
							if err := coord.Ingest(wire.Heartbeat{Host: hosts[i], Minute: minute, CPU: cpu}); err != nil {
								errs <- err
							}
						}
					}(lane)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
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
	coord.ingestMu.Lock()
	_, minted := coord.hosts["ghost"]
	coord.ingestMu.Unlock()
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

// TestStaleBeatDoesNotReviveDeadHost: a heartbeat from before a host's
// death — a held or duplicated frame, a retried POST — delivered after
// the liveness sweep declared it dead must not count toward its
// recovery, or the manager would re-pool a host that never came back.
// Fresh beats still revive it.
func TestStaleBeatDoesNotReviveDeadHost(t *testing.T) {
	coord := overloadCoordinator(t) // liveness hysteresis 2/2/2
	ctx := context.Background()
	beat := func(minute int) {
		t.Helper()
		if err := coord.Ingest(wire.Heartbeat{Host: "h1", Minute: minute, CPU: 0.4}); err != nil {
			t.Fatal(err)
		}
	}
	for m := 0; m <= 2; m++ {
		beat(m)
	}
	var dead []string
	for m := 3; m <= 6; m++ {
		d, _ := coord.CheckLiveness(ctx, m) // h1 has no agent: probes fail
		dead = append(dead, d...)
	}
	if len(dead) != 1 || dead[0] != "h1" {
		t.Fatalf("dead by minute 6: %v, want [h1]", dead)
	}
	beat(1)
	beat(1)
	if rec := coord.Liveness().Recovered(); len(rec) != 0 {
		t.Fatalf("replayed minute-1 beats recovered %v", rec)
	}
	beat(7)
	beat(8)
	if _, rec := coord.CheckLiveness(ctx, 8); len(rec) != 1 || rec[0] != "h1" {
		t.Fatalf("fresh beats at minutes 7 and 8 recovered %v, want [h1]", rec)
	}
}

// TestConcurrentIngestStress hammers the ingest lock from 64
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
