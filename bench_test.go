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
	"runtime"
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
// are byte-identical to the sequential sweep (see
// BenchmarkTable07MaxUsersSequential for the A/B reference).
func BenchmarkTable07MaxUsers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table7(experiments.Table7Options{Workers: runtime.GOMAXPROCS(0)})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, r)
		}
	}
}

// BenchmarkTable07MaxUsersSequential is the single-worker reference for
// BenchmarkTable07MaxUsers: identical output, no parallelism.
func BenchmarkTable07MaxUsersSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table7(experiments.Table7Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable07Stability repeats the Table 7 sweep across three
// noise seeds, the robustness companion to BenchmarkTable07MaxUsers.
// One shared worker pool spans the whole (seed, scenario, percent)
// grid, so it stays saturated across seed boundaries.
func BenchmarkTable07Stability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table7Stability([]uint64{1, 2, 3},
			experiments.Table7Options{Workers: runtime.GOMAXPROCS(0)})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printOnce(b, r)
		}
	}
}

// BenchmarkTable07StabilitySequential is the single-worker reference
// for BenchmarkTable07Stability.
func BenchmarkTable07StabilitySequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table7Stability([]uint64{1, 2, 3}, experiments.Table7Options{}); err != nil {
			b.Fatal(err)
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.Infer(rb, inputs)
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
// samples into its ingest shard. This is the per-host, per-minute cost
// of running the paper landscape in distributed mode; the steady state
// is allocation-free (pooled frames and envelopes, interned strings,
// recycled pending beats — guarded by TestHeartbeatPathZeroAlloc).
// Sub-benchmarks compare the wire codecs on the identical path.
func BenchmarkHeartbeatIngest(b *testing.B) {
	for _, codec := range []wire.Codec{wire.CodecBinary, wire.CodecJSON} {
		b.Run(codec.String(), func(b *testing.B) {
			dep, err := service.BuildPaperDeployment(cluster.Paper(), service.FullMobility, 1.0)
			if err != nil {
				b.Fatal(err)
			}
			lms, err := monitor.NewSystem(monitor.PaperParams(), nil)
			if err != nil {
				b.Fatal(err)
			}
			tr := wire.NewLoopback()
			tr.SetCodec(codec)
			p, err := agent.NewPlane(agent.PlaneConfig{Transport: tr}, dep, lms)
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
		})
	}
}

// ingestBed1k is the landscape of the 1,000-host ingest benchmarks: one
// instance of one service per host, a plane over the binary loopback
// with 16 ingest shards, and every host's reporter.
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
	tr := wire.NewLoopback()
	tr.SetCodec(wire.CodecBinary)
	p, err := agent.NewPlane(agent.PlaneConfig{Transport: tr, IngestShards: 16}, dep, lms)
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
// a 1,000-host landscape over the binary loopback with 16 ingest
// shards: every host's reporter delivers its heartbeat (one instance
// sample each), the coordinator merges the shards in canonical order,
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
// the shard merge (canonical order, monitor pipeline, 2,001 archive
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

// BenchmarkDispatchFanout1k measures an action storm at the paper's
// target scale: one DoBatch carrying 1,000 actions, one per host, the
// whole batch made durable-equivalent (no journal here — the wire and
// agent work dominate) and fanned out across the worker pool with one
// lane per host. Sub-benchmarks sweep the worker count; per-host
// ordering holds at every width, so the sweep shows the pure
// throughput effect of parallel fan-out (near-linear until the
// loopback's receive side saturates; on a single-core runner all
// widths degenerate to serial). Each iteration alternates start/stop
// so agent process tables stay bounded.
func BenchmarkDispatchFanout1k(b *testing.B) {
	const hosts = 1000
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			tr := wire.NewLoopback()
			defer tr.Close()
			tr.SetCodec(wire.CodecBinary)
			names := make([]string, hosts)
			for i := range names {
				names[i] = fmt.Sprintf("h%04d", i)
				if _, err := agent.NewAgent(names[i], agent.CoordinatorNode, tr); err != nil {
					b.Fatal(err)
				}
			}
			d := agent.NewDispatcher(agent.DispatchConfig{
				Timeout: 2 * time.Second, Workers: workers,
			}, tr)
			reqs := make([]wire.ActionRequest, hosts)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := wire.OpStart
				if i%2 == 1 {
					op = wire.OpStop
				}
				for j := range reqs {
					reqs[j] = wire.ActionRequest{
						Op: op, Host: names[j], Service: "app", InstanceID: "app-bench"}
				}
				for _, res := range d.DoBatch(ctx, reqs) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
					if !res.Ack.OK {
						b.Fatalf("nack: %s", res.Ack.Error)
					}
				}
			}
			b.StopTimer()
			if st := d.Stats(); st.Actions != b.N*hosts {
				b.Fatalf("dispatched %d actions, want %d", st.Actions, b.N*hosts)
			}
		})
	}
}

// BenchmarkFailoverTakeover measures the mechanical work a hot standby
// performs to replace a dead leader: the read-only warm replay of the
// leader's journal directory, the durable epoch-bumping takeover
// snapshot into the standby's own (fsync'd) journal, and the recovery
// re-issue of the in-flight actions — 16 pending, one per host, the
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
	// The dead leader's journal: one action per host, dispatched as one
	// group-committed batch and acknowledged — then cut right after the
	// batch's dispatch records, the shape a leader death mid-fan-out
	// leaves behind, so the successor has the full set to recover (the
	// agents applied and cached, the acks never became durable).
	cfg := agent.DispatchConfig{
		Timeout:     time.Second,
		BaseBackoff: time.Microsecond,
		MaxBackoff:  time.Microsecond,
		MaxAttempts: 2,
		Sleep:       func(time.Duration) {},
	}
	seedDir := b.TempDir()
	cj, err := agent.OpenCoordinatorJournal(seedDir, journal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	d := agent.NewDispatcher(cfg, tr)
	d.AttachJournal(cj)
	ctx := context.Background()
	reqs := make([]wire.ActionRequest, hosts)
	for i, h := range names {
		reqs[i] = wire.ActionRequest{Op: wire.OpStart, Host: h, Service: "app", InstanceID: "app-" + h}
	}
	for _, res := range d.DoBatch(ctx, reqs) {
		if res.Err != nil || !res.Ack.OK {
			b.Fatalf("seed dispatch: (%v, %+v)", res.Err, res.Ack)
		}
	}
	if err := cj.Close(); err != nil {
		b.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(seedDir, "wal-*.seg"))
	if err != nil {
		b.Fatal(err)
	}
	leaderDir := b.TempDir()
	var cutSegs int
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			b.Fatal(err)
		}
		if len(data) == 0 {
			continue
		}
		// Records: epoch, then the batch's 16 dispatches, then the acks.
		// Cut after the dispatch records.
		_, boundaries := journal.Frames(data)
		if len(boundaries) < hosts+1 {
			b.Fatalf("segment has %d records, want at least %d", len(boundaries), hosts+1)
		}
		if err := os.WriteFile(filepath.Join(leaderDir, filepath.Base(seg)), data[:boundaries[hosts]], 0o644); err != nil {
			b.Fatal(err)
		}
		cutSegs++
	}
	if cutSegs != 1 {
		b.Fatalf("%d non-empty segments, want 1", cutSegs)
	}

	standbyRoot := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls, err := agent.WarmReplay(leaderDir)
		if err != nil {
			b.Fatal(err)
		}
		scj, err := agent.OpenStandbyJournal(fmt.Sprintf("%s/t%d", standbyRoot, i), journal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := scj.Takeover(ls); err != nil {
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
// service therefore scores a few hundred real candidates, while the
// full-scan reference path still visits every host in the cluster —
// the access-path gap the placement index exists to close.
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

// benchmarkSelectHost measures one server-selection decision for the
// tier-confined service — candidate enumeration, Table 3 scoring and
// the argmax — under both access paths: the incremental placement
// index (the default) and the full-cluster scan the controller used
// before the index existed.
func benchmarkSelectHost(b *testing.B, nHosts int) {
	modes := []struct {
		name string
		cfg  controller.Config
	}{
		{"indexed", controller.Config{}},
		{"fullscan", controller.Config{DisablePlacementIndex: true}},
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
				ctl.SelectHost(service.ActionScaleOut, "crit", instID, 10)
			}
		})
	}
}

// BenchmarkSelectHost1k's first two cases select among the ~3 PI-9
// servers a tier-confined service may use; every-host-a-candidate is the
// other end: a scale-out of the first service of the 1,007-host tiled
// fleet, the selection bench/probes.go times, where the index prunes
// nothing but the instance's own host and a selection costs one
// inference a host (candidates/op, read off the controller's histogram).
func BenchmarkSelectHost1k(b *testing.B) {
	benchmarkSelectHost(b, 1_000)
	b.Run("every-host-a-candidate", func(b *testing.B) {
		dep := fleetDeployment(b, 53)
		arch := archive.New(256)
		for i, n := range dep.Cluster().Names() {
			s := archive.Sample{Minute: 10, CPU: 0.1 + 0.05*float64(i%8), Mem: 0.2}
			if err := arch.Record(archive.HostEntity(n), s); err != nil {
				b.Fatal(err)
			}
		}
		ctl, err := controller.New(controller.Config{}, dep, arch, controller.NewDeploymentExecutor(dep, controller.RebalanceUsers))
		if err != nil {
			b.Fatal(err)
		}
		reg := obs.NewRegistry()
		ctl.Instrument(reg) // as every coordinator is: one clock read a candidate
		svc := dep.Catalog().Names()[0]
		instID := dep.InstancesOf(svc)[0].ID
		if host, _ := ctl.SelectHost(service.ActionScaleOut, svc, instID, 10); host == "" {
			b.Fatal("selection found no host — the benchmark is vacuous")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctl.SelectHost(service.ActionScaleOut, svc, instID, 10)
		}
		snap := reg.Snapshot()
		b.ReportMetric(snap[controller.MetricSelectionCandidates+"_sum"]/snap[controller.MetricSelectionCandidates+"_count"], "candidates/op")
	})
}
func BenchmarkSelectHost100k(b *testing.B) { benchmarkSelectHost(b, 100_000) }

// fleetDeployment is the landscape of the fleet benchmark workloads: the
// paper's 19-host / 12-service full-mobility installation tiled cells
// times under cNNN- prefixes, initial allocation started. 53 cells are
// the 1,007 hosts, 636 services and 1,643 instances of fleet-steady.
func fleetDeployment(b *testing.B, cells int) *service.Deployment {
	b.Helper()
	var hosts []cluster.Host
	var svcs []*service.Service
	for c := 0; c < cells; c++ {
		prefix := fmt.Sprintf("c%03d-", c)
		for _, h := range cluster.Paper().Hosts() {
			h.Name = prefix + h.Name
			hosts = append(hosts, h)
		}
		for _, s := range service.PaperCatalog(service.FullMobility).All() {
			cp := *s
			cp.Name, cp.Subsystem = prefix+s.Name, prefix+s.Subsystem
			svcs = append(svcs, &cp)
		}
	}
	dep := service.NewDeployment(cluster.MustNew(hosts...), service.MustCatalog(svcs...))
	for c := 0; c < cells; c++ {
		prefix := fmt.Sprintf("c%03d-", c)
		for svc, on := range service.PaperInitialAllocation() {
			for _, h := range on {
				if _, err := dep.Start(prefix+svc, prefix+h); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return dep
}

// BenchmarkPlacementIndexBuild1k measures building the placement index
// over the 1,007-host fleet — the part of controller.New that grows with
// the landscape. (Every build leaves its observer hooks on the
// deployment; nothing mutates it here, so they never run.)
func BenchmarkPlacementIndexBuild1k(b *testing.B) {
	dep := fleetDeployment(b, 53)
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
	dep := fleetDeployment(b, 53)
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
// action.
func BenchmarkHandleTriggerStorm(b *testing.B) {
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
	executed := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
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
