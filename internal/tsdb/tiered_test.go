package tsdb

import (
	"fmt"
	"math/rand"
	"testing"
)

// reference is the naive in-memory model the store is checked against:
// every sample ever acked.
type reference struct {
	samples map[string][]Sample
}

func (r *reference) add(entity string, s Sample) {
	if r.samples == nil {
		r.samples = make(map[string][]Sample)
	}
	r.samples[entity] = append(r.samples[entity], s)
}

// expect returns the samples of entity a store whose retention cut is
// cut still holds: every acked one at or above the cut.
func (r *reference) expect(entity string, cut int) (minutes []Sample) {
	for _, s := range r.samples[entity] {
		if s.Minute >= cut {
			minutes = append(minutes, s)
		}
	}
	return minutes
}

// TestTieredReadsMatchReference is the randomized cross-check of the
// store: ten thousand samples across several entities, with commits,
// retention cuts and full close/reopen cycles injected at random, must
// read back — at every checkpoint — bit-identical to a naive in-memory
// reference cut the same way. One fixed seed keeps the run
// deterministic; the sequence it fixes exercises tails, seals, segment
// rotation, cuts, segment pruning and replay in combination.
func TestTieredReadsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dir := t.TempDir()
	st := openStore(t, dir, Options{SegmentBytes: 16 << 10})
	const ents = 4
	const total = 10000
	names := make([]string, ents)
	for e := range names {
		names[e] = fmt.Sprintf("svc/app-%d", e)
	}
	ref := &reference{}
	var pending []struct {
		name string
		s    Sample
	}

	check := func(label string) {
		t.Helper()
		var buf SeriesBuf
		for _, name := range names {
			minutes := ref.expect(name, st.Watermark())
			if err := st.ReadSeries(name, 0, 1<<30, &buf); err != nil {
				t.Fatal(err)
			}
			if len(buf.Minutes) != len(minutes) {
				t.Fatalf("%s: %s: got %d minutes, want %d", label, name, len(buf.Minutes), len(minutes))
			}
			for i := range minutes {
				if buf.Minutes[i] != minutes[i] {
					t.Fatalf("%s: %s: minute[%d] = %+v, want %+v", label, name, i, buf.Minutes[i], minutes[i])
				}
			}
		}
	}

	minute := 0
	written := 0
	for written < total {
		minute += 1 + rng.Intn(3)
		for e, name := range names {
			cpu := float64(rng.Intn(1000)) / 1000
			mem := float64(rng.Intn(1000)) / 1000
			s := Sample{Minute: minute, CPU: cpu, Mem: mem}
			if err := st.Append(name, s); err != nil {
				t.Fatal(err)
			}
			// Acked only at the next commit; a reopen before then may
			// legitimately drop these.
			pending = append(pending, struct {
				name string
				s    Sample
			}{names[e], s})
			written++
		}
		switch {
		case rng.Intn(10) < 3:
			if err := st.Commit(); err != nil {
				t.Fatal(err)
			}
			for _, p := range pending {
				ref.add(p.name, p.s)
			}
			pending = pending[:0]
		case rng.Intn(40) == 0 && minute > 700:
			if err := st.Commit(); err != nil {
				t.Fatal(err)
			}
			for _, p := range pending {
				ref.add(p.name, p.s)
			}
			pending = pending[:0]
			if err := st.CompactBefore(minute - 600); err != nil {
				t.Fatal(err)
			}
			check("post-compaction")
		case rng.Intn(50) == 0:
			// Crash/restart: everything committed must read identically.
			if err := st.Commit(); err != nil {
				t.Fatal(err)
			}
			for _, p := range pending {
				ref.add(p.name, p.s)
			}
			pending = pending[:0]
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st = openStore(t, dir, Options{SegmentBytes: 16 << 10})
			check("post-reopen")
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, p := range pending {
		ref.add(p.name, p.s)
	}
	check("final")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openStore(t, dir, Options{SegmentBytes: 16 << 10})
	check("final-reopened")
}
