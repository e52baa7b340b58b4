package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"autoglobe/internal/service"
)

func TestForEachIndexRunsAllJobs(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 57
		var hits [n]atomic.Int32
		err := forEachIndex(workers, n, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("workers=%d: job %d ran %d times, want 1", workers, i, got)
			}
		}
	}
}

func TestForEachIndexEmpty(t *testing.T) {
	if err := forEachIndex(4, 0, func(int) error { return errors.New("boom") }); err != nil {
		t.Fatalf("n=0: unexpected error %v", err)
	}
}

// TestForEachIndexFirstError checks that among multiple failing jobs the
// error of the lowest-indexed one wins, matching the sequential loop.
func TestForEachIndexFirstError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := forEachIndex(workers, 20, func(i int) error {
			if i >= 5 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 5 failed" {
			t.Errorf("workers=%d: err = %v, want job 5 failed", workers, err)
		}
	}
}

// TestForEachIndexStopsDispatch checks that after a failure no fresh
// jobs are started (beyond those already in flight).
func TestForEachIndexStopsDispatch(t *testing.T) {
	const n = 10000
	var started atomic.Int32
	err := forEachIndex(2, n, func(i int) error {
		started.Add(1)
		if i == 0 {
			return errors.New("early failure")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := started.Load(); got >= n {
		t.Errorf("all %d jobs ran despite early failure", got)
	}
}

func TestSweepCut(t *testing.T) {
	c := newSweepCut(2)
	if c.skip(0, 150) || c.skip(1, 100) {
		t.Fatal("fresh cut must not skip anything")
	}
	c.overloaded(0, 120)
	if !c.skip(0, 125) {
		t.Error("pct above the cut must be skipped")
	}
	if c.skip(0, 120) || c.skip(0, 115) {
		t.Error("pct at or below the cut must not be skipped")
	}
	if c.skip(1, 125) {
		t.Error("cut of group 0 must not affect group 1")
	}
	c.overloaded(0, 130) // higher than the cut: must not raise it
	if c.skip(0, 120) {
		t.Error("cut must only move downward")
	}
	c.overloaded(0, 110) // lower: must lower the cut
	if !c.skip(0, 115) {
		t.Error("cut must follow the lowest overloaded pct")
	}
}

// TestTable7ParallelDeterminism is the sweep engine's determinism
// guarantee: the grid on eight workers assembles, seed by seed, exactly
// what the one-worker grid — the plain sequential loop — does.
func TestTable7ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep in -short mode")
	}
	seeds := []uint64{1, 2, 3}
	opts := Table7Options{Hours: 24, From: 100, To: 110}.withDefaults()
	seq, err := table7Grid(opts, seeds, 1)
	if err != nil {
		t.Fatalf("one worker: %v", err)
	}
	par, err := table7Grid(opts, seeds, 8)
	if err != nil {
		t.Fatalf("eight workers: %v", err)
	}
	for i, seed := range seeds {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("seed %d: parallel result differs from sequential\nseq: %+v\npar: %+v", seed, seq[i], par[i])
		}
		if seq[i].String() != par[i].String() {
			t.Errorf("seed %d: parallel rendering differs from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s",
				seed, seq[i], par[i])
		}
	}
}

// TestTable7StabilityParallelDeterminism checks the shared-grid
// multi-seed path against per-seed sequential sweeps.
func TestTable7StabilityParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep in -short mode")
	}
	seeds := []uint64{1, 2, 3}
	opts := Table7Options{Hours: 24, From: 100, To: 105}
	par, err := Table7Stability(seeds, opts)
	if err != nil {
		t.Fatalf("shared grid: %v", err)
	}
	seq := &StabilityResult{Seeds: seeds, Ceilings: make(map[uint64]map[service.Mobility]int)}
	for _, s := range seeds {
		res, err := table7Grid(opts.withDefaults(), []uint64{s}, 1)
		if err != nil {
			t.Fatalf("seed %d sequential: %v", s, err)
		}
		seq.Ceilings[s] = res[0].MaxUsers
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel stability differs from sequential\nseq: %+v\npar: %+v", seq, par)
	}
	if seq.String() != par.String() {
		t.Errorf("parallel rendering differs\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}
