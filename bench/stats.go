package main

import (
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"

	"autoglobe/internal/agent"
	"autoglobe/internal/tsdb"
	"autoglobe/internal/wire"
)

// aligned is a series of timings taken at the same points of every round:
// the k-th measured minute, the k-th executed decision. Rounds replay
// identical work, so the observations of one point differ only by what the
// sandbox's host did to them — and it does a lot. Its neighbours' load
// comes and goes in phases of minutes: with a quiet host a 1,007-host minute
// takes 3.0–3.1 ms in every round, with a busy one the same minute takes
// 4.5 ms and more in most rounds and 3.1 ms in the few that fall into a lull.
// Medians and quartiles over rounds follow the phase (3.1 to 5.4 ms within
// three hours); what does not move is the floor, so that is what the gated
// timing reports (floor), while fastest keeps the per-point view for the
// ungated tails.
type aligned struct {
	obs  [][]int64 // per point, its observations across rounds
	next int       // next point of the round in progress
	n    int       // observations, all rounds
	max  int64     // slowest single observation
}

func (a *aligned) startRound() { a.next = 0 }

func (a *aligned) add(ns int64) {
	if a.next == len(a.obs) {
		a.obs = append(a.obs, nil)
	}
	a.obs[a.next] = append(a.obs[a.next], ns)
	a.next++
	a.n++
	a.max = max(a.max, ns)
}

// fastest returns every point's fastest observation: the point's cost with
// the least of the host in it. The ungated tails, the mean and the CPU
// chunks are read off these.
func (a *aligned) fastest() []int64 {
	v := make([]int64, len(a.obs))
	for k, o := range a.obs {
		v[k] = slices.Min(o)
	}
	return v
}

func (a *aligned) sum() float64 {
	var sum int64
	for _, v := range a.fastest() {
		sum += v
	}
	return float64(sum)
}

func (a *aligned) mean() float64 { return ratio(a.sum(), float64(len(a.obs))) }

// floorShare is the share of a run's observations taken to have met an
// undisturbed host. Over 58 runs in every phase the sandbox's host went
// through in three hours, this quantile spread by 11 % of its median (each
// minute's lower quartile over rounds, median over minutes: by 25 %), and by
// 1–10 % within ten runs in a row.
const floorShare = 0.02

// scaleRounds is the fewest rounds floor scales observations over. With
// fewer, a point's quartile over rounds says more about the host than about
// the point, and dividing by it would push observations below what any
// minute costs.
const scaleRounds = 5

// floor returns what the median point costs on an undisturbed host. Points
// differ in work (most minutes only observe, some decide), so every
// observation is first scaled to the median point's work: divided by its own
// point's lower quartile over rounds, multiplied by the median of those
// quartiles — the host's phase cancels in that ratio (the quartile follows
// the phase less than the median does, which matters most on fleet-storm,
// whose minutes differ most). The floor is the floorShare quantile of all
// scaled observations of the run. A run the host kept from making
// scaleRounds rounds pools its observations as they are: the floor of its
// cheapest points, which errs upwards.
func (a *aligned) floor() float64 {
	profile := make([]float64, len(a.obs))
	for k, o := range a.obs {
		profile[k] = quantile(o, 0.25)
	}
	mid := medianF(profile)
	pooled := make([]float64, 0, a.n)
	for k, o := range a.obs {
		scale := 1.0
		if len(o) >= scaleRounds {
			scale = ratio(mid, profile[k])
		}
		for _, ns := range o {
			pooled = append(pooled, float64(ns)*scale)
		}
	}
	return lowQuantile(pooled, floorShare)
}

// lowQuantile returns the q-quantile of v, rounding the rank down, so that
// a handful of samples yields their fastest.
func lowQuantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return s[int(q*float64(len(s)-1))]
}

// stats accumulates what the measured phases of a run's rounds produce.
// Counts are summed and reported per round or per minute (rounds of one
// run are identical — same seed, same sizes — so per-round counts are
// exact).
type stats struct {
	rounds int

	minute      aligned // one control-plane minute (sampled parts, leader alive)
	decision    aligned // HandleTrigger calls that executed an action (traced)
	cpu         aligned // process CPU of each cpuChunk measured minutes
	cpuMark     int64   // process CPU at the last chunk boundary
	takeoverNs  []int64 // Election.Tick calls in which a takeover happened
	restartNs   []int64 // Plane.CrashCoordinator
	coldStartNs []int64 // archive.NewBacked reopen
	dayNs       []int64 // one simulated 24 h (paper-day)
	setupS      []float64
	heapMB      []float64
	heapBase    uint64 // live heap when the round began: the harness's own
	seedS       float64

	minutes    int // measured minutes with a leader
	leaderless int
	kills      int
	drained    int // heartbeat minutes parked in agents when a takeover landed
	triggers   int
	forecasts  int
	executed   int
	entities   int // hosts + instances + services observed
	commits    int // minutes whose Maintain grew the program's archive disk gauge

	attempted int
	failed    int
	failures  []string

	loadgenNs  int64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64

	// counts are measured-phase deltas of the program's own counters
	// (obs.Registry families, Dispatcher.Stats), the transport wrapper's
	// call counts and the on-disk footprint.
	counts map[string]float64
	// spans are the first traced round's spans, kept for the trace file;
	// self, dur and n aggregate every traced round.
	spans   []span
	self    map[string]int64
	dur     map[string]int64
	n       map[string]int
	maintMx int64
}

func newStats() *stats {
	return &stats{
		counts: make(map[string]float64),
		self:   make(map[string]int64), dur: make(map[string]int64), n: make(map[string]int),
	}
}

// startRound opens the accounting of a new round. The caller has just
// forced a collection, so what is live now is the harness's own (the
// observations of earlier rounds above all) and is taken off the round's
// live heap.
func (st *stats) startRound() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.heapBase = ms.HeapAlloc
	st.minute.startRound()
	st.decision.startRound()
	st.cpu.startRound()
}

func (st *stats) fail(format string, args ...any) {
	st.failed++
	if len(st.failures) < 20 {
		st.failures = append(st.failures, fmt.Sprintf(format, args...))
	}
}

// counters is what is read off the rig before and after a measured phase.
type counters struct {
	reg   map[string]float64
	disp  agent.DispatchStats
	wire  [4]int64
	wireN int64
	jDisk int64
	aDisk int64
	execN int
	hbLen int64
	hbN   int64
}

// cpuChunk is how many measured minutes one CPU sample covers. The
// sandbox's host slows the process down for seconds at a time, and CPU
// time rises with it; chunks are aligned across rounds like minutes are,
// and a chunk's value is its cheapest observation.
const cpuChunk = 10

// cpuNow returns the process's user plus system CPU time so far.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// cpuSample closes a CPU chunk: what the process used since the last one.
func (st *stats) cpuSample() {
	now := cpuNow()
	st.cpu.add(now - st.cpuMark)
	st.cpuMark = now
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func takeCounters(r *rig) counters {
	var c counters
	if r == nil {
		return c
	}
	c.reg = r.reg.Snapshot()
	c.disp = r.plane.Dispatcher().Stats()
	for i := range c.wire {
		c.wire[i] = r.tr.calls[i].Load()
	}
	c.wireN = r.tr.total()
	c.jDisk = dirBytes(filepath.Join(r.dir, "journal"))
	c.aDisk = dirBytes(filepath.Join(r.dir, "archive"))
	c.execN = r.exec.n
	c.hbLen, c.hbN = r.tr.hbBytes, r.tr.hbSized
	return c
}

// family sums every series of one metric family in a registry snapshot.
func family(snap map[string]float64, name string) float64 {
	var v float64
	for k, x := range snap {
		if k == name || strings.HasPrefix(k, name+"{") {
			v += x
		}
	}
	return v
}

// measure brackets one measured phase: a forced collection first, so the
// collector's debt from set-up and warm-up is not billed to the phase,
// then allocation, GC and counter deltas and the CPU of whatever follows
// the phase's last full chunk, then the live heap after another forced
// collection with the rig still wired, less what was live when the round
// began.
func (st *stats) measure(r *rig, phase func() error) error {
	runtime.GC()
	a := takeCounters(r)
	var ma, mb runtime.MemStats
	runtime.ReadMemStats(&ma)
	st.cpuMark = cpuNow()
	if err := phase(); err != nil {
		return err
	}
	st.cpuSample()
	runtime.ReadMemStats(&mb)
	b := takeCounters(r)
	st.allocBytes += mb.TotalAlloc - ma.TotalAlloc
	st.gcCycles += mb.NumGC - ma.NumGC
	st.gcPauseNs += mb.PauseTotalNs - ma.PauseTotalNs
	if r != nil {
		add := func(name string, v float64) { st.counts[name] += v }
		fam := func(name string) float64 { return family(b.reg, name) - family(a.reg, name) }
		for i, k := range wireKinds {
			add("wire."+string(k), float64(b.wire[i]-a.wire[i]))
		}
		add("wire.calls", float64(b.wireN-a.wireN))
		add("wire.bytes", fam(wire.MetricBytes))
		add("dispatch.actions", float64(b.disp.Actions-a.disp.Actions))
		add("dispatch.retries", float64(b.disp.Retries-a.disp.Retries))
		add("dispatch.nacks", float64(b.disp.Nacks-a.disp.Nacks))
		add("dispatch.expired", float64(b.disp.Expired-a.disp.Expired))
		add("dispatch.attempts", fam(agent.MetricDispatchAttempts))
		add("journal.appends", fam(agent.MetricJournalAppends))
		add("journal.commit_groups", fam(agent.MetricJournalGroupCommits))
		add("journal.snapshots", fam(agent.MetricJournalSnapshots))
		add("journal.disk", float64(b.jDisk-a.jDisk))
		add("tsdb.disk", float64(b.aDisk-a.aDisk))
		add("tsdb.written", fam(tsdb.MetricWritten))
		add("exec.actions", float64(b.execN-a.execN))
		add("wire.heartbeat_bytes", float64(b.hbLen-a.hbLen))
		add("wire.heartbeat_sized", float64(b.hbN-a.hbN))
		st.attempted += b.disp.Actions - a.disp.Actions
		st.failed += (b.disp.Nacks - a.disp.Nacks) + (b.disp.Expired - a.disp.Expired)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.heapMB = append(st.heapMB, (float64(ms.HeapAlloc)-float64(st.heapBase))/(1<<20))
	return nil
}

// absorb folds a traced round's spans into the per-name aggregates.
func (st *stats) absorb(sp []span, from int) {
	// Only spans of measured minutes count; warm-up spans precede them.
	var kept []span
	remap := make(map[int32]int32)
	for i := range sp {
		if int(sp[i].Minute) < from {
			continue
		}
		remap[int32(i)] = int32(len(kept))
		s := sp[i]
		if s.Parent >= 0 {
			s.Parent = remap[s.Parent]
		}
		kept = append(kept, s)
	}
	for name, v := range selfTimes(kept) {
		st.self[name] += v
	}
	dur, n := totals(kept)
	for name, v := range dur {
		st.dur[name] += v
		st.n[name] += n[name]
	}
	for i := range kept {
		if kept[i].Name == "maintain" {
			st.maintMx = max(st.maintMx, kept[i].End-kept[i].Start)
		}
	}
	if st.spans == nil {
		st.spans = kept
	}
}

// quantile returns the q-quantile (nearest rank) of the samples, in the
// samples' own unit; 0 when there are none.
func quantile(samples []int64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[min(max(i, 0), len(s)-1)])
}

func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
