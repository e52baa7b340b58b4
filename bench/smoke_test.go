package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"autoglobe/internal/wire"
)

// TestMain moves to the repository root, where real runs start: that is
// where BENCHMARK.json lives.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	probeCalls = 128
	warmRound = false
	os.Exit(m.Run())
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// holds the output to BENCHMARK.json: an API rename in internal/* or a
// metric that drifts from the contract fails here, not in the pipeline.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json lists the harness's workloads in the harness's order,
	// except those the harness itself marks as run by hand only.
	var listed []string
	for _, w := range workloads {
		if w.unlisted == "" {
			listed = append(listed, w.name)
		}
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(declared, listed) {
		t.Fatalf("%s declares workloads %v, the harness lists %v", specPath, declared, listed)
	}
	for _, w := range workloads {
		w := w.toy()
		t.Run(w.name, func(t *testing.T) {
			var digests [2][]byte
			for trace := 0; trace <= 1; trace++ {
				res, err := w.run(1, 0, trace == 1, t.TempDir(), t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				out := res.output(trace == 1)
				if err := spec.check(out, trace == 1); err != nil {
					t.Error(err)
				}
				if !out.Correct || out.Attempted < 1 {
					t.Errorf("trace %d: correct=%v attempted=%d failed=%d: %v", trace, out.Correct, out.Attempted, out.Failed, res.st.failures)
				}
				if trace == 0 {
					for name, m := range out.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, must never be zero", name, m.Value)
						}
					}
				}
				digests[trace] = res.digest
			}
			if !bytes.Equal(digests[0], digests[1]) {
				t.Errorf("untraced digest %x, traced digest %x", digests[0][:6], digests[1][:6])
			}
			other, err := w.round(2, false, newStats(), t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(other, digests[0]) {
				t.Errorf("seed 2 reproduces seed 1's digest %x: the seed changes nothing", other[:6])
			}
		})
	}
}

// TestKilledLeaderUnreachableThroughWrapper pins the wrapper's fidelity:
// Election.KillLeader type-asserts Unlisten on the plane's transport, and
// a wrapper that hid it would leave the dead leader answering — the drill
// would kill nothing and still pass.
func TestKilledLeaderUnreachableThroughWrapper(t *testing.T) {
	p := findWorkload("failover-drill").toy().parts[0]
	r, err := setup(p, 1, t.TempDir(), newStats(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	leader := r.election.LeaderNode()
	beacon := func() error {
		reply, err := r.tr.Call(context.Background(), leader, wire.LeaseEnvelope("probe", leader, wire.Lease{Leader: "probe"}))
		wire.ReleaseEnvelope(reply)
		return err
	}
	if err := beacon(); err != nil {
		t.Fatalf("live leader unreachable: %v", err)
	}
	if killed, err := r.election.KillLeader(p.start); err != nil || !killed {
		t.Fatalf("KillLeader = (%v, %v), want (true, nil)", killed, err)
	}
	if err := beacon(); !errors.Is(err, wire.ErrNoRoute) {
		t.Fatalf("call to the killed leader: %v, want %v", err, wire.ErrNoRoute)
	}
}

// TestSelfTimes checks the span arithmetic: a parent's self time is its
// duration minus the union of its children's intervals, overlapping
// children (action fan-out) counted once.
func TestSelfTimes(t *testing.T) {
	sp := []span{
		{Name: "minute", Start: 0, End: 100, Parent: -1},
		{Name: "decide", Start: 10, End: 90, Parent: 0},
		{Name: "wire.action", Start: 20, End: 50, Parent: 1},
		{Name: "wire.action", Start: 40, End: 60, Parent: 1},
		{Name: "exec.apply", Start: 70, End: 80, Parent: 1},
	}
	self := selfTimes(sp)
	for name, want := range map[string]int64{"minute": 20, "decide": 30, "wire.action": 50, "exec.apply": 10} {
		if self[name] != want {
			t.Errorf("self[%s] = %d, want %d", name, self[name], want)
		}
	}
}

// TestAlignedFloor checks the de-noising the gated timings rest on: every
// observation is scaled to the median point's work, and the floor is a low
// quantile of all of them — here, with a handful, the fastest.
func TestAlignedFloor(t *testing.T) {
	var a aligned
	// Three points costing 10, 20 and 40 on a quiet host, which the second
	// round meets; the host adds 20 % to 200 % to the others.
	rounds := [][]int64{{15, 30, 60}, {10, 20, 40}, {20, 40, 80}, {12, 24, 48}, {30, 60, 120}}
	for i, round := range rounds {
		a.startRound()
		for _, ns := range round {
			a.add(ns)
		}
		// Under scaleRounds rounds nothing is scaled: the cheapest point's
		// fastest observation.
		if want := []float64{15, 10, 10, 10}; i < len(want) && a.floor() != want[i] {
			t.Errorf("floor after %d rounds = %v, want %v", i+1, a.floor(), want[i])
		}
	}
	if got, want := a.fastest(), []int64{10, 20, 40}; !slices.Equal(got, want) {
		t.Errorf("fastest = %v, want %v", got, want)
	}
	// Lower quartiles over rounds: 12, 24, 48; the median point is the
	// second, and its quiet-host cost is 20.
	if got := a.floor(); got != 20 {
		t.Errorf("floor = %v, want 20", got)
	}
	if a.n != 15 || a.max != 120 || a.sum() != 70 {
		t.Errorf("n=%d max=%d sum=%v, want 15, 120, 70", a.n, a.max, a.sum())
	}
}

// TestCompareVerdicts feeds compare suite files that differ in known ways:
// equal files pass, a gated metric 40 % worse fails, and so does an exact
// count that moved at all.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, minuteMs, wireCalls float64) string {
		f := suiteFile{Header: suiteHeader{Sizes: map[string]string{"fleet-steady": "toy"}}}
		for rep, jitter := range []float64{0.99, 1, 1.01} {
			f.Runs = append(f.Runs,
				suiteRun{Workload: "fleet-steady", Rep: rep, Correct: true, Metrics: map[string]float64{"minute_ms_p50": minuteMs * jitter}},
				suiteRun{Workload: "fleet-steady", Trace: 1, Rep: rep, Correct: true, Metrics: map[string]float64{"wire_calls_per_minute": wireCalls}})
		}
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 4, 1007)
	for _, tc := range []struct {
		name string
		path string
		want int
	}{
		{"same", write("same.json", 4.1, 1007), 0},
		{"slower", write("slower.json", 5.6, 1007), 1},
		{"chattier", write("chattier.json", 4, 1008), 1},
	} {
		if got := compareMain([]string{base, tc.path}); got != tc.want {
			t.Errorf("compare base %s = exit %d, want %d", tc.name, got, tc.want)
		}
	}
}
