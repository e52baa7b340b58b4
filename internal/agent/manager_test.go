package agent

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"autoglobe/internal/archive"
	"autoglobe/internal/cluster"
	"autoglobe/internal/controller"
	"autoglobe/internal/journal"
	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/service"
	"autoglobe/internal/wire"
)

// managerBed is a manager over the paper landscape on a binary loopback
// with a journal — the daemon's pipeline plus in-process agents, and no
// simulator anywhere.
type managerBed struct {
	t   *testing.T
	lb  *wire.Loopback
	reg *obs.Registry
	dep *service.Deployment
	m   *Manager
	dir string
	// demoted hosts keep their orphaned processes (nobody tells a dead
	// host's agent to stop anything), so the agreement check skips them.
	demoted map[string]bool
}

func newManagerBed(t *testing.T) *managerBed {
	t.Helper()
	dep, err := service.BuildPaperDeployment(cluster.Paper(), service.FullMobility, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := &managerBed{t: t, lb: wire.NewLoopback(), reg: obs.NewRegistry(), dep: dep,
		dir: t.TempDir(), demoted: make(map[string]bool)}
	b.m, err = NewLocalManager(Assembly{
		Plane:      PlaneConfig{Transport: b.lb},
		Monitor:    monitor.PaperParams(),
		Mobility:   service.FullMobility,
		JournalDir: b.dir,
		Storage:    journal.Options{NoSync: true},
		Obs:        b.reg,
	}, dep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.m.Close(); b.lb.Close() })
	return b
}

// report is the bed's report stage: every pooled host sends a steady
// load between the idle and the overload threshold, so no trigger fires
// and everything the controller does is the liveness stage's doing.
func (b *managerBed) report(ctx context.Context, minute int) error {
	for _, host := range b.dep.Cluster().Names() {
		rep, ok := b.m.Plane.Reporter(host)
		if !ok {
			return fmt.Errorf("no agent for %s", host)
		}
		rep.Begin(minute, 0.4, 0.3)
		for _, inst := range b.dep.InstancesOn(host) {
			rep.Sample(inst.ID, inst.Service, 0.4)
		}
		_ = rep.Send(ctx) // a lost beat is the liveness stage's signal
	}
	return nil
}

func (b *managerBed) minute(minute int) MinuteReport {
	b.t.Helper()
	rep, err := b.m.Minute(context.Background(), minute, b.report)
	if err != nil {
		b.t.Fatalf("minute %d: %v", minute, err)
	}
	for _, d := range rep.Demoted {
		b.demoted[d.Host] = true
	}
	b.checkPlacement(minute)
	return rep
}

// checkPlacement asserts what simulator.CheckInvariants asserts of a
// distributed run: a valid allocation, every instance on a pooled host,
// and — dead hosts aside — process tables that match the model exactly.
func (b *managerBed) checkPlacement(minute int) {
	b.t.Helper()
	if err := b.dep.Validate(); err != nil {
		b.t.Fatalf("minute %d: %v", minute, err)
	}
	for _, inst := range b.dep.Instances() {
		if _, ok := b.dep.Cluster().Host(inst.Host); !ok {
			b.t.Fatalf("minute %d: instance %s on unpooled host %s", minute, inst.ID, inst.Host)
		}
	}
	for _, host := range b.dep.Cluster().Names() {
		if b.demoted[host] {
			continue
		}
		a, _ := b.m.Plane.Agent(host)
		procs := a.Instances()
		insts := b.dep.InstancesOn(host)
		if len(procs) != len(insts) {
			b.t.Fatalf("minute %d: host %s runs %d processes, model has %d instances", minute, host, len(procs), len(insts))
		}
		for _, inst := range insts {
			if procs[inst.ID] != inst.Service {
				b.t.Fatalf("minute %d: %s on %s is %q in its agent's process table", minute, inst.ID, host, procs[inst.ID])
			}
		}
	}
}

func (b *managerBed) journalAppends(kind string) float64 {
	return b.reg.Snapshot()[MetricJournalAppends+`{kind="`+kind+`"}`]
}

// busiestHost picks the victim: the host running the most instances.
func (b *managerBed) busiestHost() string {
	victim := ""
	for _, h := range b.dep.Cluster().Names() {
		if victim == "" || b.dep.CountOn(h) > b.dep.CountOn(victim) {
			victim = h
		}
	}
	return victim
}

// TestMinuteDemotesDeadHost is the daemon path's dead-host handling,
// driven with no simulator: a partitioned host crosses DeadAfter, is
// unpooled, and its services are restarted elsewhere through dispatched
// and acknowledged actions; healing the partition re-pools it empty.
func TestMinuteDemotesDeadHost(t *testing.T) {
	b := newManagerBed(t)
	victim := b.busiestHost()
	spec, _ := b.dep.Cluster().Host(victim)
	lost := b.dep.CountOn(victim)
	if lost == 0 {
		t.Fatal("victim runs nothing — the test is vacuous")
	}
	total := len(b.dep.Instances())

	minute := 0
	for ; minute < 3; minute++ {
		if rep := b.minute(minute); len(rep.Demoted)+len(rep.Repooled) > 0 || len(rep.Triggers) != 0 {
			t.Fatalf("minute %d: steady landscape reported %+v", minute, rep)
		}
	}
	b.lb.Isolate(victim)
	var dem Demotion
	for ; ; minute++ {
		if minute > 12 {
			t.Fatal("partitioned host never declared dead")
		}
		if rep := b.minute(minute); len(rep.Demoted) > 0 {
			if len(rep.Demoted) != 1 || rep.Demoted[0].Host != victim {
				t.Fatalf("minute %d: demoted %+v, want only %s", minute, rep.Demoted, victim)
			}
			dem = rep.Demoted[0]
			minute++
			break
		}
	}

	if _, pooled := b.dep.Cluster().Host(victim); pooled {
		t.Errorf("%s still pooled after its death was confirmed", victim)
	}
	if len(dem.Lost) != lost || len(dem.Restarts) != lost {
		t.Fatalf("demotion lost %d instances with %d restarts, want %d each", len(dem.Lost), len(dem.Restarts), lost)
	}
	for i, d := range dem.Restarts {
		if d == nil {
			t.Fatalf("no host took the restart of %s", dem.Lost[i].Service)
		}
		if d.TargetHost == victim || d.Service != dem.Lost[i].Service {
			t.Errorf("restart %d: %s on %s, want %s off the dead host", i, d.Service, d.TargetHost, dem.Lost[i].Service)
		}
		// Dispatched and acknowledged: the replacement is in the target
		// agent's process table, not only in the model.
		a, _ := b.m.Plane.Agent(d.TargetHost)
		if !slices.ContainsFunc(b.dep.InstancesOn(d.TargetHost), func(inst *service.Instance) bool {
			return inst.Service == d.Service && a.Instances()[inst.ID] == d.Service
		}) {
			t.Errorf("restart %d: no acknowledged %s process on %s", i, d.Service, d.TargetHost)
		}
	}
	if got := len(b.dep.Instances()); got != total {
		t.Errorf("%d instances after the restarts, want %d", got, total)
	}
	if st := b.m.Plane.Dispatcher().Stats(); st.Actions < lost || st.Nacks != 0 {
		t.Errorf("dispatcher stats %+v, want >= %d acked actions", st, lost)
	}
	if !slices.ContainsFunc(b.m.Controller.Events(), func(e controller.Event) bool {
		return strings.Contains(e.Note, "host failure: "+victim)
	}) {
		t.Error("controller log has no host-failure entry")
	}
	// The journal holds the death and the restarts.
	ls, err := WarmReplay(b.dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, down := ls.Down[victim]; !down || len(ls.Pending) != 0 {
		t.Errorf("journal: down %v, %d pending; want %s down and nothing in flight", ls.Down, len(ls.Pending), victim)
	}
	if d, a, l := b.journalAppends(recDispatch), b.journalAppends(recAck), b.journalAppends(recLiveness); d < float64(lost) || a != d || l != 1 {
		t.Errorf("journal appends: %v dispatch, %v ack, %v liveness; want >= %d acked dispatches and 1 transition", d, a, l, lost)
	}

	// Healing re-pools the host — empty — once its probes were answered
	// AliveAfter times in a row.
	b.lb.Heal(victim)
	for ; ; minute++ {
		if minute > 24 {
			t.Fatal("healed host never re-pooled")
		}
		if rep := b.minute(minute); len(rep.Repooled) > 0 {
			if !slices.Equal(rep.Repooled, []string{victim}) {
				t.Fatalf("minute %d: re-pooled %v, want %s", minute, rep.Repooled, victim)
			}
			minute++
			break
		}
	}
	if h, pooled := b.dep.Cluster().Host(victim); !pooled || h != spec {
		t.Errorf("re-pooled host is %+v (pooled=%v), want %+v", h, pooled, spec)
	}
	if n := b.dep.CountOn(victim); n != 0 {
		t.Errorf("re-pooled host runs %d instances, want none", n)
	}
	if ls, err = WarmReplay(b.dir); err != nil || len(ls.Down) != 0 {
		t.Errorf("journal after recovery: down %v, err %v", ls.Down, err)
	}
	for end := minute + 3; minute < end; minute++ { // beats from the re-pooled host merge cleanly
		b.minute(minute)
	}
}

// TestMinuteReplansJournaledDeath crashes the coordinator between the
// journaled death and the demotion: the next incarnation finds the host
// down in its journal, still pooled, and demotes it.
func TestMinuteReplansJournaledDeath(t *testing.T) {
	b := newManagerBed(t)
	ctx := context.Background()
	victim := b.busiestHost()
	lost := b.dep.CountOn(victim)
	coord := b.m.Plane.Coordinator()

	minute := 0
	for ; minute < 3; minute++ {
		b.minute(minute)
	}
	b.lb.Isolate(victim)
	// Run whole minutes while the detector is still counting misses, then
	// the one that confirms the death by hand, stopping where the crash
	// hits: after CheckLiveness journaled it, before anyone acted on it.
	for ; ; minute++ {
		if minute > 12 {
			t.Fatal("partitioned host never declared dead")
		}
		if err := b.report(ctx, minute); err != nil {
			t.Fatal(err)
		}
		if err := coord.ObserveServices(minute); err != nil {
			t.Fatal(err)
		}
		dead, _ := coord.CheckLiveness(ctx, minute)
		coord.RecycleTriggers(coord.TakeTriggers())
		if len(dead) > 0 {
			if !slices.Equal(dead, []string{victim}) {
				t.Fatalf("dead %v, want %s", dead, victim)
			}
			minute++
			break
		}
	}
	if _, pooled := b.dep.Cluster().Host(victim); !pooled {
		t.Fatal("host demoted before the crash — the test is vacuous")
	}
	if _, err := b.m.Plane.CrashCoordinator(ctx); err != nil {
		t.Fatal(err)
	}
	if down := b.m.Plane.Dispatcher().Journal().DownHosts(); !slices.Equal(down, []string{victim}) {
		t.Fatalf("reopened journal records %v down, want %s", down, victim)
	}

	rep := b.minute(minute)
	if len(rep.Demoted) != 1 || rep.Demoted[0].Host != victim || len(rep.Demoted[0].Lost) != lost {
		t.Fatalf("first minute after the restart demoted %+v, want %s with %d instances", rep.Demoted, victim, lost)
	}
	if _, pooled := b.dep.Cluster().Host(victim); pooled {
		t.Errorf("%s still pooled", victim)
	}
	for i, d := range rep.Demoted[0].Restarts {
		if d == nil {
			t.Errorf("no host took the restart of %s", rep.Demoted[0].Lost[i].Service)
		}
	}
	// Re-planned once: the next minutes leave the landscape alone.
	for end := minute + 3; minute < end; {
		minute++
		if rep := b.minute(minute); len(rep.Demoted) != 0 {
			t.Fatalf("minute %d demoted %+v again", minute, rep.Demoted)
		}
	}
}

// TestMinuteZeroAlloc is the cost guard of the one seam: a steady minute
// of the 1,007-host fleet through Minute — reports over the binary
// loopback, merge, liveness sweep, empty decide, forecast-less scan,
// in-memory maintain — with the registry attached and every stage timed
// allocates nothing, like the minute close and the proactive scan it is
// made of.
func TestMinuteZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by race instrumentation")
	}
	dep := service.TilePaper(53)
	lb := wire.NewLoopback()
	defer lb.Close()
	reg := obs.NewRegistry()
	m, err := NewLocalManager(Assembly{
		Plane:    PlaneConfig{Transport: lb},
		Monitor:  monitor.PaperParams(),
		Mobility: service.FullMobility,
		Obs:      reg,
	}, dep)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	hosts := dep.Cluster().Names()
	reps := make([]*HeartbeatReporter, len(hosts))
	insts := make([][]*service.Instance, len(hosts))
	for i, h := range hosts {
		reps[i], _ = m.Plane.Reporter(h)
		insts[i] = dep.InstancesOn(h)
	}
	report := func(ctx context.Context, minute int) error {
		for i, rep := range reps {
			rep.Begin(minute, 0.4, 0.3)
			for _, inst := range insts[i] {
				rep.Sample(inst.ID, inst.Service, 0.4)
			}
			if err := rep.Send(ctx); err != nil {
				return err
			}
		}
		return nil
	}
	minute := 0
	step := func() {
		rep, err := m.Minute(ctx, minute, report)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Triggers) != 0 || rep.Demoted != nil || rep.Repooled != nil {
			t.Fatalf("steady minute reported %+v", rep)
		}
		minute++
	}
	for i := 0; i < 20; i++ { // fill pools, buffers and the interner
		step()
	}
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("steady-state minute allocates %.1f times, want 0", allocs)
	}
	snap := reg.Snapshot()
	for _, stage := range MinuteStages {
		want := float64(minute)
		if stage == "election.tick" {
			want = 0 // no coordinator group, no tick
		}
		if n := snap[MetricMinuteStage+`_count{stage="`+stage+`"}`]; n != want {
			t.Errorf("%s{stage=%s} timed %v runs, want %v", MetricMinuteStage, stage, n, want)
		}
	}
}

// TestWatchReadsStayInMemory runs 150 minutes of the 1,007-host fleet
// over a backed archive — past its 128-sample rings, which evict from
// minute 128 on — with one host in forty overloaded, so that triggers
// are confirmed and every inference reads its watchTime averages. None
// of those reads may continue into the store: the hot window is sized to
// them, and autoglobe_archive_deep_reads_total is how an operator sees
// that it still is.
func TestWatchReadsStayInMemory(t *testing.T) {
	dep := service.TilePaper(53)
	lb := wire.NewLoopback()
	defer lb.Close()
	reg := obs.NewRegistry()
	m, err := NewLocalManager(Assembly{
		Plane:      PlaneConfig{Transport: lb},
		Monitor:    monitor.PaperParams(),
		Mobility:   service.FullMobility,
		ArchiveDir: t.TempDir(),
		Storage:    journal.Options{NoSync: true},
		Obs:        reg,
	}, dep)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	hosts := dep.Cluster().Names()
	report := func(ctx context.Context, minute int) error {
		for i, h := range hosts {
			rep, _ := m.Plane.Reporter(h)
			load := 0.4
			if i%40 == 0 {
				load = 0.95
			}
			rep.Begin(minute, load, 0.3)
			for _, inst := range dep.InstancesOn(h) {
				rep.Sample(inst.ID, inst.Service, load)
			}
			if err := rep.Send(ctx); err != nil {
				return err
			}
		}
		return nil
	}
	for minute := 0; minute < 150; minute++ {
		if _, err := m.Minute(context.Background(), minute, report); err != nil {
			t.Fatalf("minute %d: %v", minute, err)
		}
	}
	snap := reg.Snapshot()
	if n := snap[controller.MetricInference+"_count"]; n < 100 {
		t.Fatalf("%v inferences in 150 minutes: too few watch windows were read to say anything", n)
	}
	if n := snap[archive.MetricDeepReads]; n != 0 {
		t.Errorf("%s = %v after 150 minutes, want 0: a watchTime read left the memory tier", archive.MetricDeepReads, n)
	}
	if got, want := snap[archive.MetricEntities], float64(len(m.Archive.Entities())); got != want || want < 2000 {
		t.Errorf("%s = %v, the archive holds %v entities", archive.MetricEntities, got, want)
	}
}

// TestCoordinatorBytesPerHost keeps the fleet's memory claim in tier-1:
// the 1,007-host landscape behind a backed manager — deployment, agents,
// reporters, plane, monitor, archive and tsdb — after 70 steady minutes,
// past the minute at which every entity seals its first tsdb block,
// holds at most 60 KB of live heap a host: 48.1 KB measured on this bed
// (1,643 instances; the benchmark's fleet, 1,009, reads 47.8) plus 20 %
// and rounded; 115 KB before PR 19. The archive is most of it, and who
// holds a day profile decides how much: hosts and services do (17 KB
// each), service instances do not, and the two gauges say so.
func TestCoordinatorBytesPerHost(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	dep := service.TilePaper(53)
	lb := wire.NewLoopback()
	defer lb.Close()
	reg := obs.NewRegistry()
	m, err := NewLocalManager(Assembly{
		Plane:      PlaneConfig{Transport: lb},
		Monitor:    monitor.PaperParams(),
		Mobility:   service.FullMobility,
		ArchiveDir: t.TempDir(),
		Storage:    journal.Options{NoSync: true},
		Obs:        reg,
	}, dep)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	hosts := dep.Cluster().Names()
	report := func(ctx context.Context, minute int) error {
		for _, h := range hosts {
			rep, _ := m.Plane.Reporter(h)
			rep.Begin(minute, 0.4, 0.3)
			for _, inst := range dep.InstancesOn(h) {
				rep.Sample(inst.ID, inst.Service, 0.4)
			}
			if err := rep.Send(ctx); err != nil {
				return err
			}
		}
		return nil
	}
	for minute := 0; minute < 70; minute++ {
		if _, err := m.Minute(context.Background(), minute, report); err != nil {
			t.Fatalf("minute %d: %v", minute, err)
		}
	}
	snap := reg.Snapshot()
	profiles := len(hosts) + len(dep.Catalog().All())
	if got := snap[archive.MetricProfiles]; got != float64(profiles) || profiles != 1643 {
		t.Errorf("%s = %v, want hosts + services = %d (1,643 on this landscape)", archive.MetricProfiles, got, profiles)
	}
	if got, want := snap[archive.MetricEntities], float64(profiles+len(dep.Instances())); got != want {
		t.Errorf("%s = %v, want %v: the profiled entities and every instance seen", archive.MetricEntities, got, want)
	}
	if raceEnabled {
		t.Skip("heap sizes are distorted by race instrumentation")
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if per := (after.HeapAlloc - before.HeapAlloc) / uint64(len(hosts)); per > 60<<10 {
		t.Errorf("the coordinator holds %d B of live heap a host, want at most %d", per, 60<<10)
	}
	runtime.KeepAlive(m)
}

// TestUninstrumentedManagerExposesNothing pins that the stage timers
// are resolved from the registry and nowhere else.
func TestUninstrumentedManagerExposesNothing(t *testing.T) {
	dep, err := service.BuildPaperDeployment(cluster.Paper(), service.FullMobility, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewLocalManager(Assembly{Monitor: monitor.PaperParams()}, dep)
	if err != nil {
		t.Fatal(err)
	}
	if m.stages != nil || m.Plane != nil {
		t.Fatalf("in-process manager without a registry has stages %v, plane %v", m.stages, m.Plane)
	}
	var rep MinuteReport
	if err := m.Decide(0, nil, &rep); err != nil || rep.Decisions != 0 || len(rep.Triggers) != 0 {
		t.Errorf("empty decide: %+v, %v", rep, err)
	}
	if _, err := NewManager(Assembly{Monitor: monitor.PaperParams()}, dep); err == nil {
		t.Error("a coordinator's manager was assembled without a transport")
	}
}
