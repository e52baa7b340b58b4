package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"autoglobe/internal/agent"
	"autoglobe/internal/archive"
	"autoglobe/internal/controller"
	"autoglobe/internal/forecast"
	"autoglobe/internal/fuzzy"
	"autoglobe/internal/journal"
	"autoglobe/internal/monitor"
	"autoglobe/internal/placement"
	"autoglobe/internal/service"
	"autoglobe/internal/tsdb"
	"autoglobe/internal/wire"
)

// probeCalls is how often each unit-cost probe calls its entry point (a
// variable so the smoke test can shrink it); probeBudget cuts a probe
// short once it has that much time behind it — scoring every host of a
// 1,007-host fleet costs milliseconds a call, and 10,000 of those would
// outlast the run they annotate. An argument i is never repeated and only
// grows, as the archive and the store demand of minutes.
var probeCalls = 10_000

const probeBudget = 250 * time.Millisecond

// timeCalls returns the mean cost of one call in nanoseconds. An untimed
// pass of the same length runs first: a probe's fresh rings, buffers and
// files would otherwise be billed their first-touch page faults.
func timeCalls(n int, call func(i int) error) (float64, error) {
	var t0 time.Time
	for pass := 0; pass < 2; pass++ {
		t0 = time.Now()
		for i := 0; i < n; i++ {
			if err := call(pass*n + i); err != nil {
				return 0, err
			}
			if i%16 == 15 && time.Since(t0) > probeBudget {
				n = i + 1
			}
		}
	}
	return float64(time.Since(t0)) / float64(n), nil
}

// runProbes measures the unit cost of every module's public entry point:
// unit cost × the count the traced run reports should explain the
// enclosing span. Placement and selection probe the landscape the
// workload just ran on (dep, ctl, at minute); everything else runs
// against scratch state under dir.
func runProbes(dep *service.Deployment, ctl *controller.Controller, minute int, dir string) (map[string]float64, error) {
	out := make(map[string]float64)
	ctx := context.Background()
	record := func(name string, scale float64, n int, call func(i int) error) error {
		ns, err := timeCalls(n, call)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out[name] = ns / scale
		return nil
	}

	// fuzzy: one compiled inference over a bound input vector.
	engine := fuzzy.NewEngine(nil)
	rb := controller.DefaultSelectionRules()[service.ActionScaleOut]
	vals := make([]float64, rb.Compile().NumInputs())
	for i := range vals {
		vals[i] = 0.5
	}
	if err := record("probe.fuzzy.infer_ns", 1, probeCalls, func(int) error {
		res, err := engine.InferVec(rb, vals)
		if err == nil {
			res.Release()
		}
		return err
	}); err != nil {
		return nil, err
	}

	// placement + controller: enumerate, then score, the candidate hosts
	// of a scale-out of the landscape's first service.
	svc := dep.Catalog().Names()[0]
	inst := dep.InstancesOf(svc)[0].ID
	ix := placement.NewIndex(dep, archive.HostEntity)
	var refs []*placement.HostRef
	if err := record("probe.placement.candidates_ns", 1, probeCalls, func(int) error {
		refs = ix.AppendCandidates(refs[:0], svc, placement.RelAny, 0, minute, nil)
		return nil
	}); err != nil {
		return nil, err
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("probe.placement: no candidate host for %s", svc)
	}
	if err := record("probe.controller.select_host_us", nsPerUs, probeCalls, func(int) error {
		if host, _ := ctl.SelectHost(service.ActionScaleOut, svc, inst, minute); host == "" {
			return fmt.Errorf("no host selected for %s", svc)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// monitor, archive, forecast: scratch in-memory state.
	arch := archive.New(0)
	lms, err := monitor.NewSystem(monitor.PaperParams(), arch)
	if err != nil {
		return nil, err
	}
	lms.Register("host/probe", monitor.Server, 1)
	if err := record("probe.monitor.observe_ns", 1, probeCalls, func(i int) error {
		_, err := lms.Observe("host/probe", i, 0.4, 0.3)
		return err
	}); err != nil {
		return nil, err
	}
	if err := record("probe.archive.record_ns", 1, probeCalls, func(i int) error {
		return arch.Record("svc/probe", archive.Sample{Minute: i, CPU: 0.4})
	}); err != nil {
		return nil, err
	}
	// Two recorded days give the predictor a day profile to read.
	const history = 2 * archive.MinutesPerDay
	for m := 0; m < history; m++ {
		if err := arch.Record("svc/forecast", archive.Sample{Minute: m, CPU: 0.4}); err != nil {
			return nil, err
		}
	}
	pred := forecast.New(arch)
	if err := record("probe.forecast.predict_ns", 1, probeCalls, func(int) error {
		if _, _, ok := pred.Predict("svc/forecast", history-1, 30); !ok {
			return fmt.Errorf("no prediction")
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// tsdb: a minute's write (64 entities appended, one commit), then a
	// whole-series read.
	const entities = 64
	store, err := tsdb.Open(filepath.Join(dir, "probe-tsdb"), tsdb.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	keys := make([]string, entities)
	for i := range keys {
		keys[i] = fmt.Sprintf("host/probe-%02d", i)
	}
	commits := probeCalls / entities
	if err := record("probe.tsdb.append_commit_us", nsPerUs, commits, func(i int) error {
		for _, k := range keys {
			if err := store.Append(k, tsdb.Sample{Minute: i, CPU: 0.4, Mem: 0.3}); err != nil {
				return err
			}
		}
		return store.Commit()
	}); err != nil {
		return nil, err
	}
	var buf tsdb.SeriesBuf
	if err := record("probe.tsdb.read_series_us", nsPerUs, probeCalls, func(i int) error {
		return store.ReadSeries(keys[i%entities], 0, 2*commits, &buf)
	}); err != nil {
		return nil, err
	}

	// journal: one 16-record group commit.
	jr, err := journal.Open(filepath.Join(dir, "probe-journal"), journal.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	defer jr.Close()
	batch := make([][]byte, 16)
	for i := range batch {
		batch[i] = []byte(`{"kind":"dispatch","key":"probe-0000","op":"start","host":"c000-Blade1","service":"c000-FI"}`)
	}
	if err := record("probe.journal.append_batch_us", nsPerUs, probeCalls/len(batch), func(int) error {
		return jr.AppendBatch(batch)
	}); err != nil {
		return nil, err
	}

	// wire: a two-instance heartbeat through the binary codec and back.
	env := wire.HeartbeatEnvelope("c000-Blade1", agent.CoordinatorNode, wire.Heartbeat{
		Host: "c000-Blade1", Minute: 1, CPU: 0.4, Mem: 0.3,
		Instances: []wire.InstanceSample{
			{ID: "c000-FI-1", Service: "c000-FI", Load: 0.4},
			{ID: "c000-LES-2", Service: "c000-LES", Load: 0.3},
		},
	})
	intern := wire.NewInterner()
	var frame []byte
	if err := record("probe.wire.codec_ns", 1, probeCalls, func(int) error {
		b, err := wire.AppendEnvelope(frame[:0], env)
		if err != nil {
			return err
		}
		frame = b
		dec, _, err := wire.DecodeEnvelope(b, intern)
		wire.ReleaseEnvelope(dec)
		return err
	}); err != nil {
		return nil, err
	}

	// dispatcher: one acknowledged action over a healthy binary loopback
	// (start/stop pairs keep the agent's process table bounded).
	lb := wire.NewLoopback()
	lb.SetCodec(wire.CodecBinary)
	defer lb.Close()
	if _, err := agent.NewAgent("probe-host", agent.CoordinatorNode, lb); err != nil {
		return nil, err
	}
	disp := agent.NewDispatcher(agent.DispatchConfig{}, lb)
	if err := record("probe.dispatcher.do_us", nsPerUs, probeCalls, func(i int) error {
		op := wire.OpStart
		if i%2 == 1 {
			op = wire.OpStop
		}
		ack, err := disp.Do(ctx, wire.ActionRequest{Op: op, Host: "probe-host", Service: "probe", InstanceID: "probe-1"})
		if err == nil && !ack.OK {
			err = fmt.Errorf("nack: %s", ack.Error)
		}
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}
