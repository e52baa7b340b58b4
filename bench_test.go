// Package autoglobe_test holds the benchmark harness that regenerates
// every table and figure of the paper's evaluation. Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark prints the reproduced rows or series once (on its
// first iteration) and then reports the cost of regenerating it.
package autoglobe_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"autoglobe/internal/agent"
	"autoglobe/internal/archive"
	"autoglobe/internal/cluster"
	"autoglobe/internal/controller"
	"autoglobe/internal/experiments"
	"autoglobe/internal/fuzzy"
	"autoglobe/internal/journal"
	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/placement"
	"autoglobe/internal/service"
	"autoglobe/internal/simulator"
	"autoglobe/internal/wire"
)

// printed ensures each benchmark's reproduction output appears once,
// even though the testing framework re-invokes benchmarks with growing
// iteration counts.
var printed = map[string]bool{}

func printOnce(b *testing.B, vs ...any) {
	if printed[b.Name()] {
		return
	}
	printed[b.Name()] = true
	for _, v := range vs {
		fmt.Println(v)
	}
}

// BenchmarkFigure03Fuzzification regenerates Figure 3: fuzzifying a
// crisp CPU load of 0.6 onto the cpuLoad linguistic variable
// (medium = 0.5, high = 0.2).
func BenchmarkFigure03Fuzzification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure3(0.6)
		if i == 0 {
			printOnce(b, r)
		}
	}
}

// BenchmarkFigure05Inference regenerates Figure 5 / the Section 3
// worked example: max–min inference with leftmost-maximum
// defuzzification yielding scaleUp = 0.6, scaleOut = 0.3.
func BenchmarkFigure05Inference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, r, experiments.RuleBases())
		}
	}
}

// BenchmarkFigure10LoadCurves regenerates Figure 10: the LES and BW
// load curves over one day.
func BenchmarkFigure10LoadCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure10()
		if i == 0 {
			printOnce(b, r)
		}
	}
}

// BenchmarkTable04InitialAllocation regenerates Table 4 (initial users
// and instances) and validates it against the Figure 11 hardware.
func BenchmarkTable04InitialAllocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, r)
		}
	}
}

// BenchmarkTable05Table06Constraints regenerates the scenario
// constraint tables.
func BenchmarkTable05Table06Constraints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cm := experiments.Constraints(service.ConstrainedMobility)
		fm := experiments.Constraints(service.FullMobility)
		if i == 0 {
			printOnce(b, cm, fm)
		}
	}
}

func scenarioFigure(b *testing.B, figure string, m service.Mobility, fi bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunScenarioFigure(figure, m, fi)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if fi {
				printOnce(b, f.FICurves())
			} else {
				printOnce(b, f)
			}
		}
	}
}

// BenchmarkFigure12StaticAllServers regenerates Figure 12: CPU load of
// all servers in the static scenario at +15 % users.
func BenchmarkFigure12StaticAllServers(b *testing.B) {
	scenarioFigure(b, "Figure 12", service.Static, false)
}

// BenchmarkFigure13CMAllServers regenerates Figure 13 (constrained
// mobility).
func BenchmarkFigure13CMAllServers(b *testing.B) {
	scenarioFigure(b, "Figure 13", service.ConstrainedMobility, false)
}

// BenchmarkFigure14FMAllServers regenerates Figure 14 (full mobility).
func BenchmarkFigure14FMAllServers(b *testing.B) {
	scenarioFigure(b, "Figure 14", service.FullMobility, false)
}

// BenchmarkFigure15FIStatic regenerates Figure 15: the FI application
// servers' load curves in the static scenario.
func BenchmarkFigure15FIStatic(b *testing.B) {
	scenarioFigure(b, "Figure 15", service.Static, true)
}

// BenchmarkFigure16FICM regenerates Figure 16: FI under constrained
// mobility, with the controller's scale-out/scale-in annotations.
func BenchmarkFigure16FICM(b *testing.B) {
	scenarioFigure(b, "Figure 16", service.ConstrainedMobility, true)
}

// BenchmarkFigure17FIFM regenerates Figure 17: FI under full mobility,
// with moves and scale-ups in the action log.
func BenchmarkFigure17FIFM(b *testing.B) {
	scenarioFigure(b, "Figure 17", service.FullMobility, true)
}

// BenchmarkTable07MaxUsers regenerates the headline Table 7: the
// maximum relative user population per scenario (paper: 100 % static,
// 115 % constrained mobility, 135 % full mobility). The sweep points
// run on the parallel sweep engine with one worker per core; results
// are byte-identical to the sequential sweep (GOMAXPROCS=1 runs it).
func BenchmarkTable07MaxUsers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table7(experiments.Table7Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, r)
		}
	}
}

// BenchmarkTable07Stability repeats the Table 7 sweep across three
// noise seeds, the robustness companion to BenchmarkTable07MaxUsers.
// One shared worker pool spans the whole (seed, scenario, percent)
// grid, so it stays saturated across seed boundaries.
func BenchmarkTable07Stability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table7Stability([]uint64{1, 2, 3}, experiments.Table7Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, r)
		}
	}
}

// BenchmarkAblationDefuzzifier compares defuzzification methods.
func BenchmarkAblationDefuzzifier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblateDefuzzifier(48)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, r)
		}
	}
}

// BenchmarkAblationInference compares max–min against max–product
// inference.
func BenchmarkAblationInference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblateInference(48)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, r)
		}
	}
}

// BenchmarkAblationWatchTime compares observation windows.
func BenchmarkAblationWatchTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblateWatchTime(48)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, r)
		}
	}
}

// BenchmarkAblationProtection compares protection times.
func BenchmarkAblationProtection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblateProtection(48)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, r)
		}
	}
}

// BenchmarkAblationCrispBaseline compares the fuzzy controller against
// a naive crisp threshold controller and against no controller.
func BenchmarkAblationCrispBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblateCrispBaseline(48)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, r)
		}
	}
}

// BenchmarkAblationForecast compares reactive control against the
// proactive forecast extension.
func BenchmarkAblationForecast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblateForecast(48)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, r)
		}
	}
}

// BenchmarkSLAEnforcement evaluates a uniform 5 % degradation SLA
// against all three scenarios — the paper's closing QoS direction.
func BenchmarkSLAEnforcement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.CompareSLA(1.15, 0.05, 80)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, r)
		}
	}
}

// BenchmarkFuzzyInference measures one action-selection inference cycle
// over the default serviceOverloaded rule base — the controller's inner
// loop. The rule base is compiled (internal/fuzzy/compile.go) and the
// result released back to its pool, so the steady state runs
// allocation-free.
func BenchmarkFuzzyInference(b *testing.B) {
	rb := controller.DefaultActionRules()["serviceOverloaded"]
	engine := fuzzy.NewEngine(nil)
	inputs := map[string]float64{
		controller.VarCPULoad:            0.85,
		controller.VarMemLoad:            0.40,
		controller.VarPerformanceIndex:   2,
		controller.VarInstanceLoad:       0.80,
		controller.VarServiceLoad:        0.75,
		controller.VarInstancesOnServer:  2,
		controller.VarInstancesOfService: 3,
	}
	names := rb.Compile().Inputs()
	vals := make([]float64, len(names))
	for i, n := range names {
		vals[i] = inputs[n]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.InferVec(rb, vals)
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
}

// BenchmarkRuleParsing measures fetching the full default rule bases.
// Since they are parsed and compiled once per process and memoized
// (internal/controller/rules.go), this now measures the map-copy cost of
// the accessor; see internal/fuzzy's BenchmarkParseRule for raw parser
// speed.
func BenchmarkRuleParsing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		controller.DefaultActionRules()
	}
}

// BenchmarkHeartbeatIngest measures one control-plane heartbeat round
// trip over the in-memory loopback: the agent's batching reporter
// assembles the minute's report, the binary codec frames it, transport
// delivery, and the coordinator buffering the host and per-instance
// samples in the host's slot. This is the per-host, per-minute cost of
// running the paper landscape in distributed mode; the steady state is
// allocation-free (pooled frames and envelopes, interned strings,
// recycled pending beats — guarded by TestHeartbeatPathZeroAlloc).
func BenchmarkHeartbeatIngest(b *testing.B) {
	dep, err := service.BuildPaperDeployment(cluster.Paper(), service.FullMobility, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	lms, err := monitor.NewSystem(monitor.PaperParams(), nil)
	if err != nil {
		b.Fatal(err)
	}
	p, err := agent.NewPlane(agent.PlaneConfig{Transport: wire.NewLoopback()}, dep, lms)
	if err != nil {
		b.Fatal(err)
	}
	host := dep.Cluster().Names()[0]
	insts := dep.InstancesOn(host)
	rep, ok := p.Reporter(host)
	if !ok {
		b.Fatal("no reporter")
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.Begin(i, 0.42, 0.3)
		for _, inst := range insts {
			rep.Sample(inst.ID, inst.Service, 0.42)
		}
		if err := rep.Send(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// ingestBed1k is the landscape of the 1,000-host ingest benchmarks: one
// instance of one service per host, a plane over the binary loopback,
// and every host's reporter.
type ingestBed1k struct {
	coord *agent.Coordinator
	reps  []*agent.HeartbeatReporter
	insts []*service.Instance
}

func newIngestBed1k(b *testing.B) *ingestBed1k {
	b.Helper()
	const hosts = 1000
	mk := make([]cluster.Host, hosts)
	for i := range mk {
		mk[i] = cluster.Host{Name: fmt.Sprintf("h%04d", i), Category: "blade",
			PerformanceIndex: 1, CPUs: 1, ClockMHz: 2400, CacheKB: 512,
			MemoryMB: 4096, SwapMB: 2048, TempMB: 51200}
	}
	cat, err := service.NewCatalog(&service.Service{
		Name: "app", Type: service.TypeInteractive, Subsystem: "ERP",
		MinInstances: 1, UsersPerUnit: 150, RequestWeight: 1,
		MemoryMBPerInstance: 256,
		Allowed: map[service.Action]bool{
			service.ActionStart: true, service.ActionStop: true,
			service.ActionScaleIn: true, service.ActionScaleOut: true,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	dep := service.NewDeployment(cluster.MustNew(mk...), cat)
	for i := range mk {
		if _, err := dep.Start("app", mk[i].Name); err != nil {
			b.Fatal(err)
		}
	}
	// A small archive keeps the memory footprint of 2,001 entities
	// (hosts + instances + service) proportionate to the benchmark.
	lms, err := monitor.NewSystem(monitor.PaperParams(), archive.New(256))
	if err != nil {
		b.Fatal(err)
	}
	p, err := agent.NewPlane(agent.PlaneConfig{Transport: wire.NewLoopback()}, dep, lms)
	if err != nil {
		b.Fatal(err)
	}
	bed := &ingestBed1k{coord: p.Coordinator()}
	for _, h := range dep.Cluster().Names() {
		rep, ok := p.Reporter(h)
		if !ok {
			b.Fatal("no reporter")
		}
		bed.reps = append(bed.reps, rep)
		bed.insts = append(bed.insts, dep.InstancesOn(h)[0])
	}
	return bed
}

// report delivers every host's heartbeat of one minute.
func (bed *ingestBed1k) report(ctx context.Context, b *testing.B, minute int) {
	load := 0.3 + 0.2*float64(minute%3)
	for i, rep := range bed.reps {
		rep.Begin(minute, load, 0.25)
		rep.Sample(bed.insts[i].ID, bed.insts[i].Service, load)
		if err := rep.Send(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoordinatorIngest1k measures a full control-plane minute of
// a 1,000-host landscape over the binary loopback: every host's
// reporter delivers its heartbeat (one instance
// sample each), the coordinator merges the beats in canonical order,
// closes the service observations and checks liveness — the complete
// per-minute ingest work of the scale the paper's AutoGlobe vision
// targets ("several hundred services on hundreds of hosts").
func BenchmarkCoordinatorIngest1k(b *testing.B) {
	bed := newIngestBed1k(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bed.report(ctx, b, i)
		if err := bed.coord.ObserveServices(i); err != nil {
			b.Fatal(err)
		}
		bed.coord.CheckLiveness(ctx, i)
		bed.coord.TakeTriggers()
	}
	b.StopTimer()
	if got, want := bed.coord.Heartbeats(), b.N*len(bed.reps); got != want {
		b.Fatalf("ingested %d heartbeats, want %d", got, want)
	}
}

// BenchmarkMinuteClose1k times the minute close alone on the same
// landscape — the heartbeats are delivered with the clock stopped — so
// the merge (canonical order, monitor pipeline, 2,001 archive
// writes, service close) has its own row beside the full ingest minute.
func BenchmarkMinuteClose1k(b *testing.B) {
	bed := newIngestBed1k(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bed.report(ctx, b, i)
		b.StartTimer()
		if err := bed.coord.ObserveServices(i); err != nil {
			b.Fatal(err)
		}
		bed.coord.RecycleTriggers(bed.coord.TakeTriggers())
	}
}

// BenchmarkActionDispatchLoopback measures one acknowledged action
// dispatch over the healthy loopback: key assignment, delivery, the
// agent applying the operation to its process table, and the ack coming
// back — the steady-state cost of carrying a controller decision to a
// host (retries and backoff never fire on a healthy wire). Each
// iteration is a start/stop pair so the process table stays bounded.
func BenchmarkActionDispatchLoopback(b *testing.B) {
	tr := wire.NewLoopback()
	if _, err := agent.NewAgent("h1", agent.CoordinatorNode, tr); err != nil {
		b.Fatal(err)
	}
	d := agent.NewDispatcher(agent.DispatchConfig{
		Timeout: 2 * time.Second, Sleep: func(time.Duration) {},
	}, tr)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := wire.OpStart
		if i%2 == 1 {
			op = wire.OpStop
		}
		ack, err := d.Do(ctx, wire.ActionRequest{
			Op: op, Host: "h1", Service: "app", InstanceID: "app-bench"})
		if err != nil {
			b.Fatal(err)
		}
		if !ack.OK {
			b.Fatalf("nack: %s", ack.Error)
		}
	}
}

// BenchmarkFailoverTakeover measures the mechanical work a hot standby
// performs to replace a dead leader: reopening the group's journal —
// replay and the durable epoch-bumping snapshot, fsync on — on a fresh
// copy of the dead leader's directory made outside the timer, and the
// recovery re-issue of the in-flight actions — 16 pending, one per host, the
// crash-heaviest shape. The lease protocol adds one leaderless minute
// (the TTL) of detection latency on top; this is the cost of the
// takeover itself once the lease lapses, i.e. how far behind the
// minute boundary the successor's first merge starts.
func BenchmarkFailoverTakeover(b *testing.B) {
	const hosts = 16
	tr := wire.NewLoopback()
	defer tr.Close()
	names := make([]string, hosts)
	for i := range names {
		names[i] = fmt.Sprintf("h%02d", i)
		if _, err := agent.NewAgent(names[i], agent.CoordinatorNode, tr); err != nil {
			b.Fatal(err)
		}
	}
	// The dead leader's journal: one dispatch record per host and no
	// acks, the shape a leader death right after its sends leaves
	// behind. The agents applied the actions under the journaled keys —
	// delivered by a dispatcher without a journal — so the successor
	// recovers all 16 and each is answered from an agent's cache.
	cfg := agent.DispatchConfig{
		Timeout:     time.Second,
		BaseBackoff: time.Microsecond,
		MaxBackoff:  time.Microsecond,
		MaxAttempts: 2,
		Sleep:       func(time.Duration) {},
	}
	leaderDir := b.TempDir()
	cj, err := agent.OpenCoordinatorJournal(leaderDir, journal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	deliver := agent.NewDispatcher(cfg, tr)
	for i, h := range names {
		req := wire.ActionRequest{Op: wire.OpStart, Host: h, Service: "app", InstanceID: "app-" + h,
			Key: fmt.Sprintf("%s-e%d-%06d", agent.CoordinatorNode, cj.Epoch(), i+1)}
		if err := cj.LogDispatch(req); err != nil {
			b.Fatal(err)
		}
		if ack, err := deliver.Do(ctx, req); err != nil || !ack.OK {
			b.Fatalf("seed dispatch: (%v, %+v)", err, ack)
		}
	}
	if err := cj.Close(); err != nil {
		b.Fatal(err)
	}

	copies := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(copies, fmt.Sprintf("t%d", i))
		copyJournalDir(b, leaderDir, dir)
		b.StartTimer()
		scj, err := agent.OpenCoordinatorJournal(dir, journal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		d2 := agent.NewDispatcher(cfg, tr)
		d2.AttachJournal(scj)
		if n, err := scj.Recover(ctx, d2); err != nil || n != hosts {
			b.Fatalf("recover = (%d, %v), want (%d, nil)", n, err, hosts)
		}
		if err := scj.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// copyJournalDir copies the files of the journal directory src into a
// new directory dst.
func copyJournalDir(b *testing.B, src, dst string) {
	b.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorDay measures one simulated day of the full-mobility
// scenario — the unit of cost of every figure reproduction.
func BenchmarkSimulatorDay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := simulator.PaperConfig(service.FullMobility, 1.15)
		cfg.Hours = 24
		sim, err := simulator.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// selectionLandscape builds an nHosts-host landscape for the server-
// selection benchmarks: a sea of PI-1 blades with one PI-9 server per
// 400 hosts (~250 on the 100k landscape), an unconstrained app service,
// and a mission-critical service confined to the PI-9 tier by
// MinPerfIndex and memory demand. Selecting a host for the critical
// service therefore scores a few hundred real candidates out of the
// whole cluster — the pruning the placement index exists for.
func selectionDeployment(b *testing.B, nHosts int) *service.Deployment {
	b.Helper()
	hosts := make([]cluster.Host, nHosts)
	for i := range hosts {
		h := cluster.Host{Name: fmt.Sprintf("h%06d", i), Category: "blade",
			PerformanceIndex: 1, CPUs: 1, ClockMHz: 2400, CacheKB: 512,
			MemoryMB: 4096, SwapMB: 2048, TempMB: 51200}
		if i%400 == 0 {
			h.Category = "server"
			h.PerformanceIndex = 9
			h.CPUs = 8
			h.MemoryMB = 65536
		}
		hosts[i] = h
	}
	allowed := make(map[service.Action]bool)
	for _, a := range service.Actions() {
		allowed[a] = true
	}
	cat, err := service.NewCatalog(
		&service.Service{
			Name: "app", Type: service.TypeInteractive, Subsystem: "ERP",
			MinInstances: 1, UsersPerUnit: 150, RequestWeight: 1,
			MemoryMBPerInstance: 256, Allowed: allowed,
		},
		&service.Service{
			Name: "crit", Type: service.TypeInteractive, Subsystem: "ERP",
			MinInstances: 1, MinPerfIndex: 5, UsersPerUnit: 150, RequestWeight: 1,
			MemoryMBPerInstance: 8192, Allowed: allowed,
		},
	)
	if err != nil {
		b.Fatal(err)
	}
	return service.NewDeployment(cluster.MustNew(hosts...), cat)
}

// selectionController attaches a controller to the deployment, with an
// archive holding one load sample for every PI-9 server — the
// candidates the selection controller actually scores — and one crit
// instance placed on the first of them.
func selectionController(b *testing.B, dep *service.Deployment, cfg controller.Config) (*controller.Controller, string) {
	b.Helper()
	arch := archive.New(256)
	for i, n := range dep.Cluster().Names() {
		h, _ := dep.Cluster().Host(n)
		if h.PerformanceIndex < 5 {
			continue
		}
		s := archive.Sample{Minute: 10, CPU: 0.1 + 0.05*float64(i%8), Mem: 0.2}
		if err := arch.Record(archive.HostEntity(n), s); err != nil {
			b.Fatal(err)
		}
	}
	ctl, err := controller.New(cfg, dep, arch, controller.NewDeploymentExecutor(dep, controller.RebalanceUsers))
	if err != nil {
		b.Fatal(err)
	}
	inst, err := dep.Start("crit", "h000000")
	if err != nil {
		b.Fatal(err)
	}
	return ctl, inst.ID
}

// selectionCopies returns two sets of server-selection rule bases, each
// compiled separately from the built-in sources: equal rules, distinct
// pointers. A candidate host's score memo is keyed on the base pointer,
// so a selection under one set never hits what the other set stored.
func selectionCopies() [2]map[string]*fuzzy.RuleBase {
	var sets [2]map[string]*fuzzy.RuleBase
	for i := range sets {
		sets[i] = make(map[string]*fuzzy.RuleBase)
		for name, src := range controller.DefaultRuleSources() {
			if controller.ActionsForRuleBase(name) != nil {
				sets[i][name] = fuzzy.MustRuleBase(name, controller.RuleVocabulary(name), fuzzy.MustParse(src))
			}
		}
	}
	return sets
}

// coldPlacement configures scale-out and start with the two copies of
// select/placement: a selection loop alternating the two actions scores
// the same candidates with a cold memo every time, at no swap cost.
func coldPlacement(cfg controller.Config) controller.Config {
	sets := selectionCopies()
	cfg.SelectionRules = controller.DefaultSelectionRules()
	cfg.SelectionRules[service.ActionScaleOut] = sets[0]["select/placement"]
	cfg.SelectionRules[service.ActionStart] = sets[1]["select/placement"]
	return cfg
}

// coldActions alternate between the two placement copies of coldPlacement.
var coldActions = [2]service.Action{service.ActionScaleOut, service.ActionStart}

// benchmarkSelectHost measures one server-selection decision for the
// tier-confined service — candidate enumeration through the placement
// index, Table 3 scoring and the argmax. A repeated selection finds
// every candidate's score memoised, so indexed is the warm row;
// indexed-cold alternates two separately compiled placement bases and
// infers every candidate.
func benchmarkSelectHost(b *testing.B, nHosts int) {
	modes := []struct {
		name string
		cfg  controller.Config
		cold bool
	}{
		{"indexed", controller.Config{}, false},
		{"indexed-cold", coldPlacement(controller.Config{}), true},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			ctl, instID := selectionController(b, selectionDeployment(b, nHosts), m.cfg)
			host, _ := ctl.SelectHost(service.ActionScaleOut, "crit", instID, 10)
			if host == "" {
				b.Fatal("selection found no host — the benchmark is vacuous")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := service.ActionScaleOut
				if m.cold {
					a = coldActions[i&1]
				}
				ctl.SelectHost(a, "crit", instID, 10)
			}
		})
	}
}

// BenchmarkSelectHost1k's first two cases select among the ~3 PI-9
// servers a tier-confined service may use; every-host-a-candidate is the
// other end: a scale-out of the first service of the 1,007-host tiled
// fleet, the selection bench/probes.go times, where the index prunes
// nothing but the instance's own host (candidates/op, read off the
// controller's histogram). Repeated, it finds every score memoised;
// every-host-a-candidate-cold alternates two placement copies and pays
// one inference a host.
func BenchmarkSelectHost1k(b *testing.B) {
	benchmarkSelectHost(b, 1_000)
	for _, cold := range []bool{false, true} {
		name, cfg := "every-host-a-candidate", controller.Config{}
		if cold {
			name, cfg = name+"-cold", coldPlacement(cfg)
		}
		b.Run(name, func(b *testing.B) {
			dep := service.TilePaper(53)
			arch := archive.New(256)
			for i, n := range dep.Cluster().Names() {
				s := archive.Sample{Minute: 10, CPU: 0.1 + 0.05*float64(i%8), Mem: 0.2}
				if err := arch.Record(archive.HostEntity(n), s); err != nil {
					b.Fatal(err)
				}
			}
			ctl, err := controller.New(cfg, dep, arch, controller.NewDeploymentExecutor(dep, controller.RebalanceUsers))
			if err != nil {
				b.Fatal(err)
			}
			reg := obs.NewRegistry()
			ctl.Instrument(reg) // as every coordinator is: two clock reads a selection
			svc := dep.Catalog().Names()[0]
			instID := dep.InstancesOf(svc)[0].ID
			if host, _ := ctl.SelectHost(service.ActionScaleOut, svc, instID, 10); host == "" {
				b.Fatal("selection found no host — the benchmark is vacuous")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := service.ActionScaleOut
				if cold {
					a = coldActions[i&1]
				}
				ctl.SelectHost(a, svc, instID, 10)
			}
			snap := reg.Snapshot()
			b.ReportMetric(snap[controller.MetricSelectionCandidates+"_sum"]/snap[controller.MetricSelectionCandidates+"_count"], "candidates/op")
		})
	}
}
func BenchmarkSelectHost100k(b *testing.B) { benchmarkSelectHost(b, 100_000) }

// BenchmarkPlacementIndexBuild1k measures building the placement index
// over the 1,007-host fleet — the part of controller.New that grows with
// the landscape. (Every build leaves its observer hooks on the
// deployment; nothing mutates it here, so they never run.)
func BenchmarkPlacementIndexBuild1k(b *testing.B) {
	dep := service.TilePaper(53)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		placement.NewIndex(dep, archive.HostEntity)
	}
}

// BenchmarkRefreshHost1k measures recomputing one host's feasibility
// column on the same fleet — what every executed start, stop and move
// pays per touched host.
func BenchmarkRefreshHost1k(b *testing.B) {
	dep := service.TilePaper(53)
	ix := placement.NewIndex(dep, archive.HostEntity)
	names := dep.Cluster().Names()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.RefreshHost(names[i%len(names)])
	}
}

// BenchmarkHandleTriggerStorm measures the full trigger-handling path
// under sustained pressure on a 1,000-host landscape: action-selection
// inference over every instance of the overloaded service, constraint
// verification (index-backed feasibility probes), server selection for
// the winning action, and execution with fallback. Protection is
// disabled so every trigger is decided rather than absorbed; the run
// reaches a steady state once the instances have migrated to the PI-9
// tier, and decisions/op reports how many triggers still executed an
// action. The repeated trigger finds most candidates' scores memoised:
// this is the warm row, BenchmarkHandleTriggerStormCold the cold one.
func BenchmarkHandleTriggerStorm(b *testing.B) { benchmarkStorm(b, false) }

// BenchmarkHandleTriggerStormCold is the storm with every selection
// base swapped, between iterations and off the clock, for the other of
// two separately compiled copies: no candidate's score memo hits.
func BenchmarkHandleTriggerStormCold(b *testing.B) { benchmarkStorm(b, true) }

func benchmarkStorm(b *testing.B, cold bool) {
	dep := selectionDeployment(b, 1_000)
	arch := archive.New(256)
	// Rebuild the archive picture the storm needs: blades loaded, the
	// PI-9 tier idle, the app service hot.
	names := dep.Cluster().Names()
	for _, n := range names {
		h, _ := dep.Cluster().Host(n)
		cpu := 0.85
		if h.PerformanceIndex >= 5 {
			cpu = 0.15
		}
		for m := 0; m <= 10; m++ {
			if err := arch.Record(archive.HostEntity(n), archive.Sample{Minute: m, CPU: cpu, Mem: 0.3}); err != nil {
				b.Fatal(err)
			}
		}
	}
	started := 0
	for _, n := range names {
		h, _ := dep.Cluster().Host(n)
		if h.PerformanceIndex >= 5 {
			continue
		}
		inst, err := dep.Start("app", n)
		if err != nil {
			b.Fatal(err)
		}
		for m := 0; m <= 10; m++ {
			if err := arch.Record(archive.InstanceEntity(inst.ID), archive.Sample{Minute: m, CPU: 0.8, Mem: 0.3}); err != nil {
				b.Fatal(err)
			}
		}
		if started++; started == 4 {
			break
		}
	}
	for m := 0; m <= 10; m++ {
		if err := arch.Record(archive.ServiceEntity("app"), archive.Sample{Minute: m, CPU: 0.8, Mem: 0.3}); err != nil {
			b.Fatal(err)
		}
	}
	storm, err := controller.New(controller.Config{ProtectionMinutes: -1}, dep, arch, controller.NewDeploymentExecutor(dep, controller.RebalanceUsers))
	if err != nil {
		b.Fatal(err)
	}
	trg := monitor.Trigger{Kind: monitor.ServiceOverloaded, Entity: "app", Minute: 10, WatchedFrom: 0, AvgLoad: 0.85}
	copies := selectionCopies()
	executed := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold {
			b.StopTimer()
			for name, rb := range copies[i&1] {
				if err := storm.SwapRuleBase(name, rb); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		d, err := storm.HandleTrigger(trg)
		if err != nil {
			b.Fatal(err)
		}
		if d != nil {
			executed++
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(executed)/float64(b.N), "decisions/op")
}
