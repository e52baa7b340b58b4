package agent

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"autoglobe/internal/archive"
	"autoglobe/internal/cluster"
	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/service"
	"autoglobe/internal/wire"
)

func mergeHost(name string) cluster.Host {
	return cluster.Host{Name: name, Category: "blade", PerformanceIndex: 1,
		CPUs: 1, ClockMHz: 2400, CacheKB: 512, MemoryMB: 4096,
		SwapMB: 2048, TempMB: 51200}
}

// mergeCoordinator builds a coordinator over nHosts empty hosts
// (m00, m01, …) and the given services, with the given overload watch
// time — 0 confirms a hot observation at once, which makes the trigger
// queue a transcript of the observation order.
func mergeCoordinator(t *testing.T, nHosts, overloadWatch int, services ...string) *Coordinator {
	t.Helper()
	hosts := make([]cluster.Host, nHosts)
	for i := range hosts {
		hosts[i] = mergeHost(fmt.Sprintf("m%02d", i))
	}
	svcs := make([]*service.Service, len(services))
	for i, name := range services {
		svcs[i] = &service.Service{Name: name, Type: service.TypeInteractive,
			Subsystem: "ERP", MinInstances: 1, UsersPerUnit: 150, RequestWeight: 1,
			MemoryMBPerInstance: 256}
	}
	dep := service.NewDeployment(cluster.MustNew(hosts...), service.MustCatalog(svcs...))
	lms, err := monitor.NewSystem(monitor.Params{OverloadThreshold: 0.70,
		OverloadWatch: overloadWatch, IdleThresholdBase: 0.125, IdleWatch: 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorNode, dep, lms, wire.NewLoopback())
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

type hostMinute struct {
	host   string
	minute int
}

// referenceOrder is the merge order as it was computed before the slot
// tables — a comparison sort over a per-minute map of cluster positions
// — kept here as the oracle: minute ascending, clustered hosts first in
// cluster order, the rest by name.
func referenceOrder(beats []hostMinute, clusterNames []string) {
	order := make(map[string]int, len(clusterNames))
	for i, name := range clusterNames {
		order[name] = i + 1 // 0 means "not in cluster"
	}
	sort.Slice(beats, func(i, j int) bool {
		if beats[i].minute != beats[j].minute {
			return beats[i].minute < beats[j].minute
		}
		oi, oj := order[beats[i].host], order[beats[j].host]
		if oi != oj {
			if oi == 0 {
				return false // clustered hosts first
			}
			if oj == 0 {
				return true
			}
			return oi < oj
		}
		return beats[i].host < beats[j].host
	})
}

// TestMergeOrderMatchesReference drives randomized beat sets — clustered
// and out-of-cluster hosts, shuffled arrival, hosts joining and leaving
// the cluster between minutes — through the minute close for three seeds,
// and checks the observation order (every beat is hot and confirms at
// once, so the trigger queue is the transcript) against the old
// comparator. With ha=false every close covers one minute, as agents in
// step with one coordinator send; with ha=true a close may cover two, as
// agents draining their backlog after a leader change send. The cached
// order must follow a membership change on the very next close.
func TestMergeOrderMatchesReference(t *testing.T) {
	for _, ha := range []bool{false, true} {
		for _, seed := range []int64{1, 4, 16} {
			t.Run(fmt.Sprintf("ha=%v/seed=%d", ha, seed), func(t *testing.T) {
				mergeOrderRounds(t, ha, seed)
			})
		}
	}
}

// mergeOrderRounds runs one subtest of TestMergeOrderMatchesReference:
// 120 randomized closes, each checked against referenceOrder.
func mergeOrderRounds(t *testing.T, ha bool, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	coord := mergeCoordinator(t, 12, 0)
	cl := coord.dep.Cluster()
	outsiders := []string{"zeta", "alpha", "m99", "kappa", "M00"}
	spare := 0
	minute := 1
	for round := 0; round < 120; round++ {
		// Membership churn: a host joins (possibly one that
		// beat as an outsider before) or leaves.
		switch rng.Intn(5) {
		case 0:
			name := fmt.Sprintf("n%02d", spare)
			if spare%2 == 1 {
				name = outsiders[spare/2%len(outsiders)]
			}
			spare++
			if _, ok := cl.Host(name); !ok {
				if err := cl.Add(mergeHost(name)); err != nil {
					t.Fatal(err)
				}
			}
		case 1:
			if names := cl.Names(); len(names) > 4 {
				if err := cl.Remove(names[rng.Intn(len(names))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		// A backlog drain may cover two minutes: the older one is
		// parked and replayed as its own group.
		span := 1
		if ha && rng.Intn(3) == 0 {
			span = 2
		}
		pool := cl.Names()
		for _, name := range outsiders {
			if _, member := cl.Host(name); !member {
				pool = append(pool, name)
			}
		}
		var sent []hostMinute
		for m := minute; m < minute+span; m++ {
			for _, host := range pool {
				if rng.Intn(4) > 0 {
					sent = append(sent, hostMinute{host, m})
				}
			}
		}
		rng.Shuffle(len(sent), func(i, j int) { sent[i], sent[j] = sent[j], sent[i] })
		for _, b := range sent {
			if err := coord.Ingest(wire.Heartbeat{Host: b.host, Minute: b.minute, CPU: 0.9}); err != nil {
				t.Fatal(err)
			}
		}
		minute += span
		if err := coord.ObserveServices(minute - 1); err != nil {
			t.Fatal(err)
		}
		want := sent
		referenceOrder(want, cl.Names())
		got := coord.TakeTriggers()
		if len(got) != len(want) {
			t.Fatalf("round %d: %d observations, want %d", round, len(got), len(want))
		}
		for i, tr := range got {
			if tr.Entity != want[i].host || tr.Minute != want[i].minute {
				t.Fatalf("round %d: observation %d = %s@%d, want %s@%d", round, i,
					tr.Entity, tr.Minute, want[i].host, want[i].minute)
			}
		}
	}
}

// TestFailedMergeDoesNotLeakServiceSamples: a merge that fails after
// some hosts were observed must not leave their instance samples in the
// service accumulators, or the next minute's service load would average
// them in. The following minute has to look exactly like a clean run's.
func TestFailedMergeDoesNotLeakServiceSamples(t *testing.T) {
	run := func(poison bool) archive.Sample {
		coord := mergeCoordinator(t, 3, 2, "app")
		arch := coord.lms.Archive()
		if poison {
			// m01's series is ahead of the clock: observing it at minute
			// 10 fails, after m00 was observed and its sample accumulated.
			if err := arch.Record(archive.HostEntity("m01"), archive.Sample{Minute: 50}); err != nil {
				t.Fatal(err)
			}
		}
		beat := func(host string, minute int, load float64) {
			t.Helper()
			if err := coord.Ingest(wire.Heartbeat{Host: host, Minute: minute, CPU: 0.4,
				Instances: []wire.InstanceSample{{ID: host + "-i", Service: "app", Load: load}}}); err != nil {
				t.Fatal(err)
			}
		}
		beat("m00", 10, 0.9)
		beat("m01", 10, 0.8)
		if err := coord.ObserveServices(10); (err != nil) != poison {
			t.Fatalf("poison=%v: minute 10 close: %v", poison, err)
		}
		beat("m02", 11, 0.2)
		if err := coord.ObserveServices(11); err != nil {
			t.Fatal(err)
		}
		s, ok := arch.Latest(archive.ServiceEntity("app"))
		if !ok || s.Minute != 11 {
			t.Fatalf("poison=%v: no service observation at minute 11: %+v", poison, s)
		}
		return s
	}
	clean, failed := run(false), run(true)
	if math.Float64bits(clean.CPU) != math.Float64bits(failed.CPU) {
		t.Fatalf("service load after a failed merge = %v, clean run = %v", failed.CPU, clean.CPU)
	}
}

// TestForgetPurgesBackfill: a dead host's parked older-minute beat must
// not be replayed by the next close — that would re-register the host
// the liveness sweep just demoted.
func TestForgetPurgesBackfill(t *testing.T) {
	for _, release := range []bool{false, true} {
		coord := mergeCoordinator(t, 3, 2)
		beat := func(minute int) {
			t.Helper()
			if err := coord.Ingest(wire.Heartbeat{Host: "m01", Minute: minute, CPU: 0.5}); err != nil {
				t.Fatal(err)
			}
		}
		beat(4)
		if err := coord.ObserveServices(4); err != nil {
			t.Fatal(err)
		}
		key := archive.HostEntity("m01")
		if !coord.lms.Watch(key).Live() {
			t.Fatal("host not registered by its first beat")
		}
		beat(5)
		beat(6) // parks minute 5 beside the pending 6
		hs := coord.slotFor("m01")
		if len(hs.parked) != 1 {
			t.Fatalf("%d parked beats, want 1", len(hs.parked))
		}
		free := len(coord.free)
		if release {
			coord.Release("m01")
		} else {
			coord.Forget("m01")
		}
		if len(hs.parked) != 0 || hs.pending != nil {
			t.Fatalf("release=%v: %d parked beats survive, pending beat %v", release, len(hs.parked), hs.pending)
		}
		if len(coord.free) != free+2 {
			t.Fatalf("release=%v: freelist grew by %d, want both beats back", release, len(coord.free)-free)
		}
		if err := coord.ObserveServices(6); err != nil {
			t.Fatal(err)
		}
		if coord.lms.Watch(key).Live() {
			t.Fatalf("release=%v: forgotten host resurfaced in the monitor", release)
		}
		if hs.watch != (monitor.Watch{}) {
			t.Fatalf("release=%v: slot keeps a watch handle after Forget", release)
		}
		if s, _ := coord.lms.Archive().Latest(key); s.Minute != 4 {
			t.Fatalf("release=%v: archive advanced to minute %d after Forget", release, s.Minute)
		}
	}
}

// TestFutureBeatIsClamped: the wire is unauthenticated, so any peer can
// stamp a beat a million minutes ahead. The close places it at its own
// minute, as any beat from outside the window it owns: every later close
// succeeds, and the host goes on being observed at the coordinator's
// minute instead of hiding behind a watermark from the future.
func TestFutureBeatIsClamped(t *testing.T) {
	coord := mergeCoordinator(t, 3, 2, "app")
	arch := coord.lms.Archive()
	for minute := 0; minute < 20; minute++ {
		for _, host := range []string{"m00", "m01"} {
			stamp := minute
			if host == "m01" && minute == 10 {
				stamp = 1_000_000
			}
			if err := coord.Ingest(wire.Heartbeat{Host: host, Minute: stamp, CPU: 0.4,
				Instances: []wire.InstanceSample{{ID: host + "-i", Service: "app", Load: 0.4}}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := coord.ObserveServices(minute); err != nil {
			t.Fatalf("minute %d: %v", minute, err)
		}
		for _, key := range []string{archive.HostEntity("m00"), archive.HostEntity("m01"), archive.ServiceEntity("app")} {
			if s, _ := arch.Latest(key); s.Minute != minute {
				t.Fatalf("minute %d: %s archived up to minute %d", minute, key, s.Minute)
			}
		}
	}
}

// TestParkedMinutesAreBounded: a host parks at most reporterBufferCap
// older minutes between two closes — all a reporter ever holds — so
// 100,000 distinct minutes from one host hold 17 beats, not 100,000:
// past the cap the oldest goes back to the freelist, and the close
// observes the newest minutes, each at its own.
func TestParkedMinutesAreBounded(t *testing.T) {
	coord := mergeCoordinator(t, 3, 2)
	for minute := 1; minute <= 100_000; minute++ {
		if err := coord.Ingest(wire.Heartbeat{Host: "m01", Minute: minute, CPU: 0.4}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(coord.slotFor("m01").parked); n > reporterBufferCap {
		t.Fatalf("%d minutes parked, want at most %d", n, reporterBufferCap)
	}
	if err := coord.ObserveServices(100_000); err != nil {
		t.Fatal(err)
	}
	if n := len(coord.free); n != reporterBufferCap+1 {
		t.Fatalf("the host held %d beats, want %d", n, reporterBufferCap+1)
	}
	key := archive.HostEntity("m01")
	if n := coord.lms.Archive().Entity(key).Len(); n != reporterBufferCap+1 {
		t.Fatalf("the close observed %d minutes, want %d", n, reporterBufferCap+1)
	}
	if s, _ := coord.lms.Archive().Latest(key); s.Minute != 100_000 {
		t.Fatalf("m01 archived up to minute %d, want 100000", s.Minute)
	}
}

// TestForgetThenBeatResetsWatch: a forgotten host's next beat
// re-registers it with fresh watch state — the half-finished overload
// watch of its previous life must not confirm.
func TestForgetThenBeatResetsWatch(t *testing.T) {
	coord := mergeCoordinator(t, 3, 2)
	hot := func(minute int) []*monitor.Trigger {
		t.Helper()
		if err := coord.Ingest(wire.Heartbeat{Host: "m00", Minute: minute, CPU: 0.9}); err != nil {
			t.Fatal(err)
		}
		if err := coord.ObserveServices(minute); err != nil {
			t.Fatal(err)
		}
		return coord.TakeTriggers()
	}
	hot(0)
	hot(1)
	key := archive.HostEntity("m00")
	if !coord.lms.Watching(key) {
		t.Fatal("two hot minutes did not start an overload watch")
	}
	coord.Forget("m00")
	if coord.lms.Watch(key).Live() {
		t.Fatal("Forget left the monitor registration")
	}
	// Minute 2 would confirm the old watch (0..2); fresh state starts a
	// new one, which confirms at minute 4 with WatchedFrom 2.
	for m := 2; m < 4; m++ {
		if trs := hot(m); len(trs) != 0 {
			t.Fatalf("minute %d: trigger %v from a watch that Forget should have reset", m, trs[0])
		}
	}
	trs := hot(4)
	if len(trs) != 1 || trs[0].Kind != monitor.ServerOverloaded || trs[0].WatchedFrom != 2 || trs[0].Entity != "m00" {
		t.Fatalf("minute 4: triggers %v, want one serverOverloaded(m00) watched from 2", trs)
	}
}

// TestInstanceMovesBetweenServices: an instance ID re-reported under
// another service leaves the old service's average and lands in the new
// one's, although the host's positional slot cache still points at it.
func TestInstanceMovesBetweenServices(t *testing.T) {
	coord := mergeCoordinator(t, 2, 2, "app", "db")
	arch := coord.lms.Archive()
	report := func(minute int, svc string, load float64) {
		t.Helper()
		if err := coord.Ingest(wire.Heartbeat{Host: "m00", Minute: minute, CPU: 0.4,
			Instances: []wire.InstanceSample{{ID: "i1", Service: svc, Load: load}}}); err != nil {
			t.Fatal(err)
		}
		if err := coord.Ingest(wire.Heartbeat{Host: "m01", Minute: minute, CPU: 0.4,
			Instances: []wire.InstanceSample{{ID: "i2", Service: "app", Load: 0.2}}}); err != nil {
			t.Fatal(err)
		}
		if err := coord.ObserveServices(minute); err != nil {
			t.Fatal(err)
		}
	}
	report(0, "app", 0.4)
	if s, _ := arch.Latest(archive.ServiceEntity("app")); s.Minute != 0 || math.Abs(s.CPU-0.3) > 1e-12 {
		t.Fatalf("minute 0: app = %+v, want the mean of both instances", s)
	}
	if arch.Entity(archive.ServiceEntity("db")).Len() != 0 {
		t.Fatal("db observed before any instance reported under it")
	}
	report(1, "db", 0.6)
	if s, _ := arch.Latest(archive.ServiceEntity("app")); s.Minute != 1 || s.CPU != 0.2 {
		t.Fatalf("minute 1: app = %+v, want i2 alone", s)
	}
	if s, _ := arch.Latest(archive.ServiceEntity("db")); s.Minute != 1 || s.CPU != 0.6 {
		t.Fatalf("minute 1: db = %+v, want i1's load", s)
	}
	if s, _ := arch.Latest(archive.InstanceEntity("i1")); s.Minute != 1 || s.CPU != 0.6 {
		t.Fatalf("minute 1: instance i1 = %+v", s)
	}
}

// TestMinuteCloseZeroAlloc is the perf gate of the minute close: on the
// tiled 1,007-host landscape, with a registry attached to coordinator
// and monitor, a steady-state minute — every host's beat buffered, the
// beats merged in canonical order, every instance archived, every
// service closed — must allocate nothing. With ha=true every close
// drains a two-minute backlog, as after a leader change: the older
// minute is parked and replayed as its own group, allocation-free too.
// Slots, cached order, merge buffers and accumulators exist for this
// property.
func TestMinuteCloseZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by race instrumentation")
	}
	for _, ha := range []bool{false, true} {
		t.Run(fmt.Sprintf("ha=%v", ha), func(t *testing.T) {
			span := 1
			if ha {
				span = 2
			}
			minuteCloseZeroAlloc(t, span)
		})
	}
}

// minuteCloseZeroAlloc runs one subtest of TestMinuteCloseZeroAlloc,
// with span minutes per host buffered for each close.
func minuteCloseZeroAlloc(t *testing.T, span int) {
	dep := service.TilePaper(53)
	lms, err := monitor.NewSystem(monitor.PaperParams(), archive.New(64))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorNode, dep, lms, wire.NewLoopback())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord.Instrument(reg)
	lms.Instrument(reg)
	// A load between the idle and the overload threshold: no watch
	// starts, so no trigger is allocated.
	var beats []wire.Heartbeat
	for _, h := range dep.Cluster().Names() {
		hb := wire.Heartbeat{Host: h, CPU: 0.4, Mem: 0.3}
		for _, inst := range dep.InstancesOn(h) {
			hb.Instances = append(hb.Instances, wire.InstanceSample{ID: inst.ID, Service: inst.Service, Load: 0.4})
		}
		beats = append(beats, hb)
	}
	minute, closes := 0, 0
	step := func() {
		for end := minute + span; minute < end; minute++ {
			for i := range beats {
				beats[i].Minute = minute
				if err := coord.Ingest(beats[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := coord.ObserveServices(minute - 1); err != nil {
			t.Fatal(err)
		}
		closes++
	}
	// Fill the rings, pools and buffers for 80 minutes; the measured
	// closes then end below minute 128, where the archive seals its
	// second block of every entity.
	for minute < 80 {
		step()
	}
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("steady-state minute close allocates %.1f times, want 0", allocs)
	}
	if trs := coord.TakeTriggers(); len(trs) != 0 {
		t.Fatalf("steady load raised %d triggers", len(trs))
	}
	snap := reg.Snapshot()
	if n := snap[MetricMergeSeconds+"_count"]; n != float64(closes) {
		t.Errorf("%s counted %v closes, want %d", MetricMergeSeconds, n, closes)
	}
	for class, per := range map[string]int{"host": len(beats), "service": dep.Catalog().Len(), "instance": len(dep.Instances())} {
		if n := snap[MetricMergeEntities+`{class="`+class+`"}`]; n != float64(per*minute) {
			t.Errorf("%s{class=%s} = %v, want %d per minute", MetricMergeEntities, class, n, per)
		}
	}
}

// TestCloseQueuesConfirmedTriggers: one close appends what the monitor
// confirms straight onto the trigger queue, in merge order — hosts in
// cluster order, then services in catalog order — under each trigger's
// landscape name, and drops the idle trigger of a host with nothing
// running on it, whatever comes after it.
func TestCloseQueuesConfirmedTriggers(t *testing.T) {
	dep := service.NewDeployment(cluster.MustNew(mergeHost("m00"), mergeHost("m01"), mergeHost("m02")),
		service.MustCatalog(
			&service.Service{Name: "app", Type: service.TypeInteractive, MinInstances: 1, UsersPerUnit: 150, RequestWeight: 1, MemoryMBPerInstance: 256},
			&service.Service{Name: "db", Type: service.TypeInteractive, MinInstances: 1, UsersPerUnit: 150, RequestWeight: 1, MemoryMBPerInstance: 256},
		))
	lms, err := monitor.NewSystem(monitor.Params{OverloadThreshold: 0.70, IdleThresholdBase: 0.125}, nil)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorNode, dep, lms, wire.NewLoopback())
	if err != nil {
		t.Fatal(err)
	}
	for _, hb := range []wire.Heartbeat{
		{Host: "m02", Minute: 1, CPU: 0.05, Instances: []wire.InstanceSample{{ID: "db-1", Service: "db", Load: 0.05}}},
		{Host: "m01", Minute: 1, CPU: 0.05}, // idle and empty: its resting state
		{Host: "m00", Minute: 1, CPU: 0.9, Instances: []wire.InstanceSample{{ID: "app-1", Service: "app", Load: 0.9}}},
	} {
		if err := coord.Ingest(hb); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.ObserveServices(1); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind   monitor.TriggerKind
		entity string
	}{
		{monitor.ServerOverloaded, "m00"},
		{monitor.ServerIdle, "m02"},
		{monitor.ServiceOverloaded, "app"},
		{monitor.ServiceIdle, "db"},
	}
	got := coord.takeTriggers()
	if len(got) != len(want) {
		t.Fatalf("queued %d triggers, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Kind != w.kind || got[i].Entity != w.entity || got[i].Minute != 1 {
			t.Errorf("trigger %d = %s %q at minute %d, want %s %q at minute 1",
				i, got[i].Kind, got[i].Entity, got[i].Minute, w.kind, w.entity)
		}
	}
}
