package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"time"

	"autoglobe/internal/agent"
	"autoglobe/internal/archive"
	"autoglobe/internal/controller"
	"autoglobe/internal/forecast"
	"autoglobe/internal/journal"
	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/service"
	"autoglobe/internal/tsdb"
	"autoglobe/internal/wire"
)

// part is one plane of a workload round: a fleet, how it is wired and
// what is done to it. Most workloads have one part; the failover drill
// has two, because the program makes leader kills and in-place
// coordinator restarts mutually exclusive (Plane.CrashCoordinator swaps
// the journal under an election's feet — agentd's demo mode turns crash
// injections into leader kills for the same reason).
type part struct {
	cells      int
	multiplier float64
	// start is the first simulated minute (06:00 of the first day, or of
	// the second when a prior day is pre-seeded); warmup minutes run
	// unmeasured before the measured minutes.
	start, warmup, minutes int
	// forecast is the proactive scan's horizon in minutes (0: off). With
	// it on, the day before start is pre-seeded into the archive.
	forecast int
	http     bool
	standbys int
	// killEvery / crashEvery schedule Election.KillLeader /
	// Plane.CrashCoordinator roughly that many minutes apart (0: never).
	killEvery, crashEvery int
	// coldStarts closes and reopens the archive's store that many times
	// after the last minute.
	coldStarts int
	// sampled parts contribute their minutes to minute_ms_p50.
	sampled bool
}

// hosts is the fleet size: a cell is the paper's 19-host installation.
func (p part) hosts() int { return p.cells * 19 }

// rig is one freshly wired control plane over a generated fleet: what
// cmd/autoglobe-agentd's runCoordinator assembles, plus the agent per
// host that a real landscape runs as separate daemons.
type rig struct {
	p    part
	st   *stats
	rec  *recorder
	ctx  context.Context
	dir  string
	load *loadgen
	ls   *landscape

	reg      *obs.Registry
	tr       *timedTransport
	arch     *archive.Archive
	lms      *monitor.System
	plane    *agent.Plane
	election *agent.Election
	ctl      *controller.Controller
	exec     *timedExecutor
	reps     []*agent.HeartbeatReporter
	hosts    []string
	journal  *agent.CoordinatorJournal // the journal currently instrumented
	// disk is the program's own gauge of the archive's on-disk bytes and
	// diskSeen its value after the previous minute: a minute whose
	// Maintain moved it wrote to the store, which a NoSync: false run
	// follows with an fsync.
	disk     *obs.Gauge
	diskSeen float64

	kills, crashes map[int]bool
}

// setup builds the landscape and wires the plane in runCoordinator's
// order: transport, archive, monitor, coordinator + agents + dispatcher,
// journal, standbys, executor, controller — every component instrumented
// with one obs.Registry and the decision tracer, which is the production
// configuration. Journal and tsdb run NoSync on dir: the sandbox disk's
// fsync latency would bury every control-plane number, so durability cost
// is reported as counts instead.
func setup(p part, seed uint64, dir string, st *stats, rec *recorder) (*rig, error) {
	r := &rig{p: p, st: st, rec: rec, ctx: context.Background(), dir: dir, reg: obs.NewRegistry()}
	var err error
	if r.ls, err = fleet(p.cells, p.multiplier, seed); err != nil {
		return nil, err
	}
	dep := r.ls.dep
	r.load = newLoadgen(r.ls, seed)
	r.hosts = dep.Cluster().Names()

	var inner wire.Transport
	if p.http {
		h := wire.NewHTTP()
		h.Codec = wire.CodecBinary
		h.Instrument(r.reg)
		inner = h
	} else {
		l := wire.NewLoopback()
		l.SetCodec(wire.CodecBinary)
		l.Instrument(r.reg)
		inner = l
	}
	r.tr = &timedTransport{inner: inner, rec: rec}

	if r.arch, err = archive.NewBacked(filepath.Join(dir, "archive"), 0, tsdb.Options{NoSync: true}); err != nil {
		return nil, err
	}
	r.arch.Instrument(r.reg)
	r.disk = r.reg.Gauge(tsdb.MetricDiskBytes)
	params := monitor.PaperParams()
	if r.lms, err = monitor.NewSystem(params, r.arch); err != nil {
		return nil, err
	}
	r.lms.Instrument(r.reg)
	if r.plane, err = agent.NewPlane(agent.PlaneConfig{Transport: r.tr}, dep, r.lms); err != nil {
		return nil, err
	}
	r.plane.Coordinator().Liveness().Instrument(r.reg)
	if _, _, err = r.plane.AttachJournal(r.ctx, filepath.Join(dir, "journal"), journal.Options{NoSync: true}); err != nil {
		return nil, err
	}
	if p.standbys > 0 {
		if r.election, err = r.plane.AttachStandbys(p.standbys, agent.ElectionConfig{}); err != nil {
			return nil, err
		}
	}
	tracer := obs.NewTracer(0)
	r.plane.Instrument(r.reg)
	r.plane.Trace(tracer)
	r.instrumentLeader()

	r.exec = &timedExecutor{inner: controller.NewDeploymentExecutor(dep, controller.RebalanceUsers), rec: rec}
	cfg := controller.Config{}
	if p.forecast > 0 {
		cfg.Forecast = &controller.ForecastConfig{
			Predictor: forecast.New(r.arch),
			Horizon:   p.forecast,
			Threshold: params.OverloadThreshold,
			Watching:  r.lms.Watching,
		}
	}
	if r.ctl, err = controller.New(cfg, dep, r.arch, r.plane.Executor(r.exec)); err != nil {
		return nil, err
	}
	r.ctl.Instrument(r.reg)
	r.ctl.Trace(tracer)

	r.reps = make([]*agent.HeartbeatReporter, len(r.hosts))
	for i, h := range r.hosts {
		rep, ok := r.plane.Reporter(h)
		if !ok {
			return nil, fmt.Errorf("no agent attached for host %q", h)
		}
		r.reps[i] = rep
	}

	// The fault schedule: one event roughly every killEvery/crashEvery
	// minutes, jittered by the seed.
	rng := rand.New(rand.NewSource(int64(seed) + 7))
	schedule := func(every int) map[int]bool {
		at := make(map[int]bool)
		for m := p.start + p.warmup + every/2; every > 0 && m < p.start+p.warmup+p.minutes-every/2; m += every {
			at[m+rng.Intn(every/4+1)] = true
		}
		return at
	}
	r.kills, r.crashes = schedule(p.killEvery), schedule(p.crashEvery)
	return r, nil
}

// instrumentLeader attaches the registry to whichever coordinator and
// journal currently lead: a restart or takeover swaps both, and the
// program's own wiring (Plane.Instrument) only reaches the founding pair.
func (r *rig) instrumentLeader() {
	if cj := r.plane.Dispatcher().Journal(); cj != r.journal {
		cj.Instrument(r.reg)
		r.plane.Coordinator().Instrument(r.reg)
		r.journal = cj
	}
}

// seed pre-records the day before start (the forecaster's prior day).
func (r *rig) seed() error {
	if r.p.forecast <= 0 {
		return nil
	}
	t0 := time.Now()
	err := r.load.seedArchive(r.arch, r.p.start-1440, r.p.start)
	r.st.seedS += time.Since(t0).Seconds()
	return err
}

// run drives warm-up and measured minutes back to back, then the cold
// starts. measure brackets the measured phase.
func (r *rig) run(measure func(phase func() error) error) error {
	for m := r.p.start; m < r.p.start+r.p.warmup; m++ {
		if err := r.minute(m, false); err != nil {
			return err
		}
	}
	return measure(func() error {
		for k := 0; k < r.p.minutes; k++ {
			if err := r.minute(r.p.start+r.p.warmup+k, true); err != nil {
				return err
			}
			if k%cpuChunk == cpuChunk-1 {
				r.st.cpuSample()
			}
		}
		for i := 0; i < r.p.coldStarts; i++ {
			if err := r.coldStart(); err != nil {
				return err
			}
		}
		return nil
	})
}

// minute is the one control-plane minute loop, built only from public
// functions in the order runCoordinator calls them (the election tick and
// the agents' reports come first, as in the simulator's distributed
// mode). Load generation happens before the clock starts.
func (r *rig) minute(m int, measured bool) error {
	st, rec := r.st, r.rec
	if measured {
		if r.kills[m] {
			killed, err := r.election.KillLeader(m)
			if err != nil {
				return err
			}
			if killed {
				st.kills++
			}
		}
		if r.crashes[m] {
			t0 := time.Now()
			_, err := r.plane.CrashCoordinator(r.ctx)
			if err != nil {
				return fmt.Errorf("minute %d: restart: %w", m, err)
			}
			st.restartNs = append(st.restartNs, int64(time.Since(t0)))
			r.instrumentLeader()
		}
	}
	g0 := time.Now()
	r.load.compute(m)
	t0 := time.Now()
	if measured {
		st.loadgenNs += int64(t0.Sub(g0))
	}

	if rec != nil {
		rec.minute.Store(int32(m))
	}
	ms := rec.begin("minute", -1)
	leaderless := false
	if r.election != nil {
		before := r.election.Takeovers()
		sp := rec.stage("election.tick", ms)
		tick := time.Now()
		err := r.election.Tick(r.ctx, m)
		d := time.Since(tick)
		rec.end(sp)
		if err != nil {
			return fmt.Errorf("minute %d: election: %w", m, err)
		}
		if r.election.Takeovers() > before {
			r.instrumentLeader()
			if measured {
				st.takeoverNs = append(st.takeoverNs, int64(d))
				for _, rep := range r.reps {
					st.drained += rep.Buffered()
				}
			}
		}
		leaderless = !r.election.LeaderAlive()
	}

	sp := rec.stage("report", ms)
	lost := r.load.report(r.ctx, r.reps, m)
	rec.end(sp)
	if leaderless {
		// No coordinator to merge, probe or decide: the reports above
		// failed by design and sit parked in the agents' rings; the next
		// takeover drains them.
		rec.end(ms)
		if measured {
			st.leaderless++
		}
		return nil
	}
	if measured {
		st.attempted += len(r.reps)
		st.failed += lost
	}

	coord := r.plane.Coordinator()
	if err := coord.Err(); err != nil {
		st.fail("minute %d: ingest: %v", m, err)
	}
	sp = rec.stage("merge", ms)
	err := coord.ObserveServices(m)
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("minute %d: merge: %w", m, err)
	}
	sp = rec.stage("liveness", ms)
	dead, _ := coord.CheckLiveness(r.ctx, m)
	rec.end(sp)
	if len(dead) > 0 {
		st.fail("minute %d: hosts %v declared dead on a fault-free wire", m, dead)
	}
	triggers := coord.TakeTriggers()
	for _, tg := range triggers {
		r.decide(*tg, ms, measured)
	}
	sp = rec.stage("proactive", ms)
	forecasts := r.ctl.Proactive(m)
	rec.end(sp)
	for _, tg := range forecasts {
		r.decide(tg, ms, measured)
	}
	sp = rec.stage("maintain", ms)
	err = r.arch.Maintain(m)
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("minute %d: maintain: %w", m, err)
	}
	coord.RecycleTriggers(triggers)
	rec.end(ms)
	wrote := r.disk.Value() != r.diskSeen
	r.diskSeen = r.disk.Value()
	if measured {
		st.minutes++
		if wrote {
			st.commits++
		}
		st.entities += len(r.hosts) + r.load.instances + len(r.load.order)
		st.triggers += len(triggers)
		st.forecasts += len(forecasts)
		if r.p.sampled {
			st.minute.add(int64(time.Since(t0)))
		}
	}
	return nil
}

// decide hands one trigger to the controller.
func (r *rig) decide(tg monitor.Trigger, ms int32, measured bool) {
	sp := r.rec.stage("decide", ms)
	d, err := r.ctl.HandleTrigger(tg)
	r.rec.end(sp)
	if !measured {
		return
	}
	st := r.st
	st.attempted++
	if err != nil {
		st.fail("trigger %s(%s): %v", tg.Kind, tg.Entity, err)
	}
	if d != nil {
		st.executed++
		if r.rec != nil {
			st.decision.add(r.rec.sp[sp].End - r.rec.sp[sp].Start)
		}
	}
}

// coldStart closes the archive's store and times its reopen: the tsdb
// replay a restarted coordinator pays before its first minute.
func (r *rig) coldStart() error {
	if err := r.arch.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	arch, err := archive.NewBacked(filepath.Join(r.dir, "archive"), 0, tsdb.Options{NoSync: true})
	if err != nil {
		return err
	}
	r.st.coldStartNs = append(r.st.coldStartNs, int64(time.Since(t0)))
	want, _ := r.arch.LastMinute()
	if got, _ := arch.LastMinute(); got != want {
		r.st.fail("cold start recovered history to minute %d, want %d", got, want)
	}
	r.arch = arch
	return nil
}

// verify runs the end-of-round output checks and folds the controller's
// event log and the final allocation into the digest.
func (r *rig) verify(digest *[]byte) {
	st := r.st
	dep := r.ls.dep
	st.attempted += 3
	if err := dep.Validate(); err != nil {
		st.fail("final allocation invalid: %v", err)
	}
	// Model ⇄ agent agreement, exempting nothing: no host dies here, so
	// every model instance must be in its host's process table and no
	// process may be unaccounted for.
	agree := true
	for i, h := range r.hosts {
		a, _ := r.plane.Agent(h)
		procs := a.Instances()
		insts := dep.InstancesOn(h)
		if len(procs) != len(insts) {
			agree = false
		}
		for _, inst := range insts {
			if procs[inst.ID] != inst.Service {
				agree = false
			}
		}
		if r.reps[i].Buffered() != 0 {
			st.fail("host %s still buffers %d undelivered minutes", h, r.reps[i].Buffered())
		}
	}
	if !agree {
		st.fail("model and agent process tables disagree")
	}
	if err := r.plane.Coordinator().Err(); err != nil {
		st.fail("ingest: %v", err)
	}

	h := sha256.New()
	h.Write(*digest)
	for _, e := range r.ctl.Events() {
		fmt.Fprintf(h, "%d|%v|%v|%s\n", e.Minute, e.Decision, e.Executed, e.Note)
	}
	digestLandscape(h, dep, r.arch)
	*digest = h.Sum(nil)
}

// digestLandscape folds the final allocation (instances are returned
// sorted by ID) and every host's last archived sample into a digest: the
// first pins what the controller did, the second what the monitor saw,
// which is what makes two seeds differ even when they decide alike.
func digestLandscape(h io.Writer, dep *service.Deployment, arch *archive.Archive) {
	for _, inst := range dep.Instances() {
		fmt.Fprintf(h, "%s@%s %.9g %d\n", inst.ID, inst.Host, inst.Users, inst.Priority)
	}
	for _, host := range dep.Cluster().Names() {
		s, _ := arch.Latest(archive.HostEntity(host))
		fmt.Fprintf(h, "%s %d %.9g\n", host, s.Minute, s.CPU)
	}
}

// close releases the rig's files and listeners.
func (r *rig) close() {
	r.arch.Close()
	if cj := r.plane.Dispatcher().Journal(); cj != nil {
		cj.Close()
	}
	r.tr.Close()
}
