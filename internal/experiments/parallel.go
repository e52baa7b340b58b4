// Parallel sweep engine. Every paper artifact — the Table 7 sweep, its
// multi-seed stability companion, the ablation arms and the SLA
// comparison — is a pile of fully independent simulator runs: each run
// builds its own deployment, workload generator, archive, monitor and
// controller, and seeds its own RNG from the run configuration, so runs
// share no mutable state (the default fuzzy rule bases are shared but
// immutable and concurrency-safe, see internal/fuzzy/compile.go). This
// file fans those runs out across a bounded worker pool with
// deterministic result ordering and first-error propagation; the sweep
// drivers in tables.go, ablations.go and sla.go assemble the results in
// exactly the order the sequential loops would have produced them, so
// parallel output is byte-identical to sequential output.
package experiments

import (
	"sync"
	"sync/atomic"
)

// forEachIndex runs job(0..n-1) across a pool of workers goroutines and
// returns the first error by index. Jobs are dispatched in index order,
// so with isolated jobs writing into index-addressed slots the combined
// result is independent of scheduling. After any job fails no further
// jobs are started; the error of the lowest-indexed failed job is
// returned, matching the sequential loop's error up to jobs that were
// already in flight. workers <= 1 degenerates to the plain loop.
func forEachIndex(workers, n int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	next.Store(-1)
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || failed.Load() {
					return
				}
				if err := job(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweepCut tracks, per job group (one (seed, scenario) lane of a
// sweep), the lowest percent at which a run came out overloaded. Workers
// consult it before starting a point: a point strictly above its lane's
// cut can never appear in the assembled detail — the sequential loop
// would have stopped earlier — so computing it would be pure waste.
// Skipping it cannot change results, only save work, because cuts move
// monotonically downward and are only set from deterministic run
// outcomes.
type sweepCut struct {
	cut []atomic.Int64 // lowest overloaded percent per group; -1 = none yet
}

func newSweepCut(groups int) *sweepCut {
	s := &sweepCut{cut: make([]atomic.Int64, groups)}
	for i := range s.cut {
		s.cut[i].Store(-1)
	}
	return s
}

// skip reports whether a point at pct in the group is unreachable.
func (s *sweepCut) skip(group, pct int) bool {
	c := s.cut[group].Load()
	return c >= 0 && int64(pct) > c
}

// overloaded records an overloaded outcome at pct, lowering the group's
// cut if pct is the lowest overloaded percent seen so far.
func (s *sweepCut) overloaded(group, pct int) {
	for {
		c := s.cut[group].Load()
		if c >= 0 && c <= int64(pct) {
			return
		}
		if s.cut[group].CompareAndSwap(c, int64(pct)) {
			return
		}
	}
}
