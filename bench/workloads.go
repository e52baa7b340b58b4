package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"autoglobe/internal/service"
	"autoglobe/internal/simulator"
)

// workload is one named set of inputs. A run repeats fixed-size rounds —
// fresh landscape, fresh plane, fresh temp directory, same seed — so
// every round yields the same digest and the same counts.
type workload struct {
	name  string
	parts []part // empty: the in-process paper day
	// setups is how often a round sets each of its planes up: all are
	// timed, all but the last are torn down again at once. A set-up is
	// mostly allocation and first touches of memory, the noisiest work
	// there is on the sandbox, and setup_s is the floor of every set-up of
	// the run, which takes many to find: one a round of the 1,007-host fleet
	// (0.3–0.5 s each, and a run has ten to twenty rounds), four of the
	// 513-host one (0.1 s), eight of a 190-host one (0.03 s).
	setups int
	// unlisted says why a workload of the harness is not one of
	// BENCHMARK.json's: it runs by hand (--workload, suite, compare) but the
	// pipeline neither runs nor gates it.
	unlisted string
	// Vacuity guards, per round: a workload that stops exercising what it
	// exists to exercise fails instead of reporting a fast nothing.
	minTriggers, minDecisions, minTakeovers, minRestarts int
}

const dayStart = 6 * 60 // 06:00, before the morning ramp

// workloads lists the benchmark's inputs at their final sizes (hosts as
// specified, simulated hours shrunk to fit the run budget).
var workloads = []*workload{
	{name: "paper-day"},
	{
		name: "fleet-steady", setups: 1, minTriggers: 1,
		parts: []part{{cells: 53, multiplier: 1.00, start: dayStart, warmup: 30, minutes: 120, sampled: true}},
	},
	{
		name: "fleet-storm", setups: 4, minDecisions: 100,
		parts: []part{{cells: 27, multiplier: 1.40, start: 1440 + dayStart + 90, warmup: 30, minutes: 100, forecast: 30, sampled: true}},
	},
	{
		name: "fleet-http", setups: 8, minTriggers: 1,
		unlisted: "every heartbeat is a loopback socket round trip, and in the sandbox's VM those follow the host, not the program: identical runs gave minute medians from 6.7 to 22 ms within twenty minutes, far past any bound",
		parts:    []part{{cells: 10, multiplier: 1.15, start: dayStart, warmup: 30, minutes: 90, http: true, sampled: true}},
	},
	{
		name: "failover-drill", setups: 8, minTakeovers: 30, minRestarts: 30,
		parts: []part{
			{cells: 10, multiplier: 1.15, start: dayStart, warmup: 30, minutes: 480, standbys: 2, killEvery: 15, sampled: true},
			{cells: 10, multiplier: 1.15, start: dayStart, warmup: 30, minutes: 480, crashEvery: 15, coldStarts: 5},
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// resized returns the workload with every part passed through resize and
// without its vacuity guards, which are calibrated for the declared sizes.
func (w *workload) resized(resize func(p *part)) *workload {
	r := &workload{name: w.name, setups: w.setups, unlisted: w.unlisted}
	for _, p := range w.parts {
		resize(&p)
		r.parts = append(r.parts, p)
	}
	return r
}

// toy shrinks a workload to smoke-test size: 2 cells, 45 measured
// minutes, 3 kills and restarts, 2 set-ups, guards at their floor.
func (w *workload) toy() *workload {
	t := w.resized(func(p *part) {
		p.cells, p.warmup, p.minutes = 2, 12, 45
		if p.http {
			p.minutes = 15 // every heartbeat is a real round trip
		}
		p.killEvery, p.crashEvery = min(p.killEvery, 15), min(p.crashEvery, 15)
		p.coldStarts = min(p.coldStarts, 2)
	})
	t.setups = min(t.setups, 2)
	for _, p := range t.parts {
		if p.killEvery > 0 {
			t.minTakeovers = 3
		}
		if p.crashEvery > 0 {
			t.minRestarts = 3
		}
	}
	return t
}

// warmRound makes a run start with a thrown-away round (the smoke test
// turns it off).
var warmRound = true

// runResult is what one run hands to the metric tables.
type runResult struct {
	st       *stats // rounds in the requested mode (traced when trace is on)
	plain    *stats // trace runs only: the interleaved untraced rounds
	digest   []byte
	probes   map[string]float64
	traceOut string
}

// minRounds is how many measured rounds a run makes however slow they
// are: a traced and an untraced one. In the host's worst phases a round
// takes five times its usual time, and a pipeline's time limit does not
// stretch with it.
const minRounds = 2

// run repeats rounds of the workload for the measuring time: a new round
// starts as long as one as slow as the slowest so far would still end
// within it, and minRounds are made regardless, so a run's wall time is
// the measuring time plus the warm-up round whatever the host is doing.
// With trace on, traced and
// untraced rounds alternate in one process: the traced ones give the
// per-layer numbers, the untraced ones the baseline the tracing overhead
// is taken against, and both must agree on the digest and on every exact
// count.
func (w *workload) run(seed uint64, seconds float64, trace bool, scratch, outDir string) (*runResult, error) {
	res := &runResult{st: newStats()}
	if trace {
		res.plain = newStats()
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	// A quarter-length round first warms the process up and is thrown away:
	// it is the round that grows the heap, and on the sandbox a first touch
	// of fresh memory costs tens of microseconds a page, which would
	// otherwise land in whichever metric happened to be running. Later
	// rounds reuse its pages.
	if warmRound {
		if _, err := w.resized(func(p *part) { p.minutes /= 4 }).round(seed, false, newStats(), scratch, nil); err != nil {
			return nil, fmt.Errorf("%s warm-up round: %w", w.name, err)
		}
	}
	// Traced and untraced rounds come in pairs: trace.overhead_share
	// compares the two kinds, and both must have seen as much of the host.
	step := 1
	if trace {
		step = 2
	}
	start := time.Now()
	budget := time.Duration(seconds * float64(time.Second))
	var slowest time.Duration
	for round := 0; ; round++ {
		if round%step == 0 && round >= minRounds && time.Since(start)+time.Duration(step)*slowest >= budget {
			break
		}
		st, traced := res.st, trace
		if trace && round%2 == 1 {
			st, traced = res.plain, false
		}
		before := *st
		var probes *map[string]float64
		if trace && round == 0 {
			probes = &res.probes
		}
		t0 := time.Now()
		digest, err := w.round(seed, traced, st, scratch, probes)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, round, err)
		}
		if probes == nil {
			slowest = max(slowest, time.Since(t0))
		}
		if res.digest == nil {
			res.digest = digest
		} else if !bytes.Equal(res.digest, digest) {
			st.fail("round %d digest %x differs from round 0's %x: the run is not deterministic", round, digest[:6], res.digest[:6])
		}
		w.guard(st, &before)
	}
	if trace {
		res.compareCounts()
		res.st.attempted += res.plain.attempted
		res.st.failed += res.plain.failed
		res.st.failures = append(res.st.failures, res.plain.failures...)
		if res.st.spans != nil {
			res.traceOut = filepath.Join(outDir, w.name+".trace.json")
			if err := writeTrace(res.traceOut, w.name, seed, res.st.spans); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// guard applies the vacuity guards to what the last round added.
func (w *workload) guard(st, before *stats) {
	check := func(what string, got, want int) {
		st.attempted++
		if got < want {
			st.fail("vacuous round: %d %s, need at least %d", got, what, want)
		}
	}
	check("triggers", st.triggers+st.forecasts-before.triggers-before.forecasts, w.minTriggers)
	check("executed decisions", st.executed-before.executed, w.minDecisions)
	check("takeovers", len(st.takeoverNs)-len(before.takeoverNs), w.minTakeovers)
	check("restarts", len(st.restartNs)-len(before.restartNs), w.minRestarts)
	st.attempted += len(st.takeoverNs) - len(before.takeoverNs)
}

// exactCounts are the counts that must not depend on whether the
// harness records spans.
var exactCounts = []string{
	"wire.calls", "wire.heartbeat", "wire.action", "wire.probe", "wire.lease",
	"dispatch.actions", "dispatch.attempts", "journal.appends", "journal.disk", "tsdb.disk", "tsdb.written",
}

// compareCounts checks the traced and untraced rounds agree, per round,
// on every exact count.
func (res *runResult) compareCounts() {
	a, b := res.st, res.plain
	a.attempted++
	for _, name := range exactCounts {
		if x, y := ratio(a.counts[name], float64(a.rounds)), ratio(b.counts[name], float64(b.rounds)); x != y {
			a.fail("%s per round: %v traced, %v untraced", name, x, y)
		}
	}
}

// round runs every part of the workload once, in fresh state.
// With probes set, the unit-cost probes run against the last part's end
// state before it is torn down.
func (w *workload) round(seed uint64, traced bool, st *stats, scratch string, probes *map[string]float64) ([]byte, error) {
	// The previous round's plane is garbage by now: collect it before this
	// round allocates, so the new plane reuses its pages.
	runtime.GC()
	st.startRound()
	if len(w.parts) == 0 {
		return paperDay(seed, st, scratch, probes)
	}
	var digest []byte
	setups := make([]time.Duration, w.setups)
	for i, p := range w.parts {
		wantProbes := probes
		if i < len(w.parts)-1 {
			wantProbes = nil
		}
		if err := w.runPart(p, seed, traced, st, scratch, &digest, setups, wantProbes); err != nil {
			return nil, err
		}
	}
	for _, d := range setups {
		st.setupS = append(st.setupS, d.Seconds())
	}
	st.rounds++
	return digest, nil
}

// runPart sets one part's plane up in a scratch directory of its own,
// drives it, checks it, folds it into the digest and tears it down. It
// adds the time of its k-th set-up to setups[k].
func (w *workload) runPart(p part, seed uint64, traced bool, st *stats, scratch string, digest *[]byte, setups []time.Duration, probes *map[string]float64) error {
	dir, err := os.MkdirTemp(scratch, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var rec *recorder
	if traced {
		rec = newRecorder((p.warmup + p.minutes) * (p.hosts() + 32))
	}
	var r *rig
	for k := range setups {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		if r, err = setup(p, seed, filepath.Join(dir, fmt.Sprint(k)), st, rec); err != nil {
			return err
		}
		setups[k] += time.Since(t0)
	}
	defer r.close()
	if err := r.seed(); err != nil {
		return err
	}
	if err := r.run(func(phase func() error) error { return st.measure(r, phase) }); err != nil {
		return err
	}
	r.verify(digest)
	if traced {
		st.absorb(rec.sp, p.start+p.warmup)
	}
	if probes != nil {
		*probes, err = runProbes(r.ls.dep, r.ctl, p.start+p.warmup+p.minutes-1, dir)
	}
	return err
}

// paperDay is the in-process round: the unmodified simulator, full
// mobility at 1.15× users, one 24 h day — the unit cost of every table
// and figure of the paper, with no wire, journal, tsdb or dispatcher in
// the way. It is stepped minute by minute (Run is exactly that loop) so
// the minute median is defined the same way as on the fleet workloads.
func paperDay(seed uint64, st *stats, scratch string, probes *map[string]float64) ([]byte, error) {
	cfg := simulator.PaperConfig(service.FullMobility, 1.15)
	cfg.Hours = 24
	cfg.Seed = seed
	t0 := time.Now()
	sim, err := simulator.New(cfg)
	if err != nil {
		return nil, err
	}
	st.setupS = append(st.setupS, time.Since(t0).Seconds())
	err = st.measure(nil, func() error {
		day := time.Now()
		for m := 0; m < cfg.Hours*60; m++ {
			s0 := time.Now()
			if err := sim.Step(m); err != nil {
				return err
			}
			st.minute.add(int64(time.Since(s0)))
			if m%cpuChunk == cpuChunk-1 {
				st.cpuSample()
			}
		}
		st.dayNs = append(st.dayNs, int64(time.Since(day)))
		st.minutes += cfg.Hours * 60
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.rounds++
	st.attempted += 2
	if err := sim.Deployment().Validate(); err != nil {
		st.fail("final allocation invalid: %v", err)
	}
	if err := sim.CheckInvariants(true); err != nil {
		st.fail("invariants: %v", err)
	}
	h := sha256.New()
	for _, e := range sim.Controller().Events() {
		st.attempted++
		if e.Decision != nil && e.Executed {
			st.executed++
		}
		fmt.Fprintf(h, "%d|%v|%v|%s\n", e.Minute, e.Decision, e.Executed, e.Note)
	}
	digestLandscape(h, sim.Deployment(), sim.Archive())
	if probes != nil {
		dir, err := os.MkdirTemp(scratch, "paper-day-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if *probes, err = runProbes(sim.Deployment(), sim.Controller(), cfg.Hours*60-1, dir); err != nil {
			return nil, err
		}
	}
	return h.Sum(nil), nil
}
