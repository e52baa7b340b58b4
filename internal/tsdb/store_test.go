package tsdb

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// load is the deterministic synthetic load shape the tests write:
// distinct per entity and minute, exactly representable arithmetic.
func load(ent, minute int) (cpu, mem float64) {
	return float64(ent+1) * float64(minute%97) / 128.0, float64(ent+1) * float64(minute%53) / 256.0
}

func openStore(t testing.TB, dir string, opts Options) *Store {
	t.Helper()
	opts.NoSync = true
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func collect(t testing.TB, st *Store, entity string, from, to int) []Sample {
	t.Helper()
	var got []Sample
	if _, err := st.Range(st.Lookup(entity), from, to, func(s Sample) {
		got = append(got, s)
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestAppendCommitReopenRoundTrip drives the full write path — rows,
// sealed blocks, segment rotation, the dictionary — and proves a
// reopened store serves exactly the appended sequence per entity.
func TestAppendCommitReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	// Small segments force several rotations over the run.
	st := openStore(t, dir, Options{SegmentBytes: 8 << 10})
	const ents, minutes = 3, 333
	want := make(map[string][]Sample)
	for m := 0; m < minutes; m++ {
		for e := 0; e < ents; e++ {
			name := fmt.Sprintf("svc/app-%d", e)
			cpu, mem := load(e, m)
			s := Sample{Minute: m, CPU: cpu, Mem: mem}
			if err := st.Append(name, s); err != nil {
				t.Fatal(err)
			}
			want[name] = append(want[name], s)
		}
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(label string, st *Store) {
		t.Helper()
		for name, ws := range want {
			got := collect(t, st, name, 0, minutes)
			if len(got) != len(ws) {
				t.Fatalf("%s: %s: got %d samples, want %d", label, name, len(got), len(ws))
			}
			for i := range got {
				if got[i] != ws[i] {
					t.Fatalf("%s: %s[%d]: got %+v, want %+v", label, name, i, got[i], ws[i])
				}
			}
		}
	}
	check("live", st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir, Options{SegmentBytes: 8 << 10})
	check("reopened", st2)
	if got := len(st2.Entities()); got != ents {
		t.Fatalf("reopened store has %d entities, want %d", got, ents)
	}
}

// TestUncommittedSamplesAreLost pins the ack contract: Append alone is
// a buffer, Commit is the acknowledgement. Samples appended after the
// last commit do not survive a reopen.
func TestUncommittedSamplesAreLost(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	for m := 0; m < 10; m++ {
		if err := st.Append("svc/a", Sample{Minute: m, CPU: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	for m := 10; m < 20; m++ {
		if err := st.Append("svc/a", Sample{Minute: m, CPU: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash: reopen without Close (Close would commit).
	st2 := openStore(t, dir, Options{})
	if got := collect(t, st2, "svc/a", 0, 100); len(got) != 10 {
		t.Fatalf("recovered %d samples, want the 10 committed ones", len(got))
	}
}

// TestAppendGuards pins the write-path contracts: minutes per entity
// are non-decreasing, and nothing lands below the retention cut.
func TestAppendGuards(t *testing.T) {
	st := openStore(t, t.TempDir(), Options{})
	if err := st.Append("svc/a", Sample{Minute: 5}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("svc/a", Sample{Minute: 3}); err == nil {
		t.Fatal("non-monotone append accepted")
	}
	if err := st.Append("svc/a", Sample{Minute: 5}); err != nil {
		t.Fatalf("equal-minute append rejected: %v", err)
	}
	// Push three hours of data, cut the first two away, then try to write
	// into the removed past.
	for m := 6; m < 180; m++ {
		if err := st.Append("svc/a", Sample{Minute: m}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.CompactBefore(120); err != nil {
		t.Fatal(err)
	}
	if wm := st.Watermark(); wm != 120 {
		t.Fatalf("retention cut %d, want 120", wm)
	}
	if err := st.Append("svc/b", Sample{Minute: 60}); err == nil {
		t.Fatal("append below the retention cut accepted")
	}
	// A refused append registers nothing and leaves the handle
	// unresolved; the first accepted one resolves it, after which handle
	// and name write the same series under the same guards.
	var h Handle
	if err := st.AppendTo(&h, "svc/b", Sample{Minute: 60}); err == nil || h != (Handle{}) {
		t.Fatalf("refused AppendTo: err %v, handle resolved %v", err, h != (Handle{}))
	}
	if names := st.Entities(); len(names) != 1 {
		t.Fatalf("refused appends registered an entity: %v", names)
	}
	if err := st.AppendTo(&h, "svc/b", Sample{Minute: 200}); err != nil || h == (Handle{}) {
		t.Fatalf("AppendTo: err %v, handle resolved %v", err, h != (Handle{}))
	}
	if err := st.Append("svc/b", Sample{Minute: 201}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendTo(&h, "svc/b", Sample{Minute: 200}); err == nil {
		t.Fatal("non-monotone append through the handle accepted")
	}
	var got []int
	if _, err := st.Range(st.Lookup("svc/b"), 0, 1000, func(s Sample) { got = append(got, s.Minute) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 200 || got[1] != 201 {
		t.Fatalf("svc/b holds minutes %v, want [200 201]", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var late Handle
	if err := st.AppendTo(&late, "svc/c", Sample{Minute: 300}); err != ErrClosed || late != (Handle{}) {
		t.Fatalf("AppendTo on a closed store: err %v, handle resolved %v", err, late != (Handle{}))
	}
}

// TestCompactionPrunesSegments proves the retention cut reclaims disk:
// minute segments wholly below the cut are deleted, while straddling and
// active segments survive.
func TestCompactionPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{SegmentBytes: 4 << 10})
	for m := 0; m < 3000; m++ {
		if err := st.Append("svc/a", Sample{Minute: m, CPU: 0.5, Mem: 0.25}); err != nil {
			t.Fatal(err)
		}
		if m%5 == 4 {
			if err := st.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	before := st.diskBytes()
	if err := st.CompactBefore(2880); err != nil {
		t.Fatal(err)
	}
	after := st.diskBytes()
	if after >= before {
		t.Fatalf("compaction did not reclaim disk: %d -> %d bytes", before, after)
	}
	// The survivors still serve every minute from the cut on.
	if got := collect(t, st, "svc/a", 0, 3000); len(got) != 3000-2880 {
		t.Fatalf("%d raw minutes after compaction, want %d", len(got), 3000-2880)
	}
	var buf SeriesBuf
	if err := st.ReadSeries("svc/a", 0, 3000, &buf); err != nil {
		t.Fatal(err)
	}
	if len(buf.Minutes) != 3000-2880 || buf.Minutes[0].Minute != 2880 {
		t.Fatalf("ReadSeries after the cut: %d minutes, want %d from 2880", len(buf.Minutes), 3000-2880)
	}
}

// TestTSDBAppendPathZeroAlloc is the perf gate of the archive write
// path: one steady-state minute — a sample into each entity's open
// block and the open row, plus the row's commit (CRC frame, one
// buffered segment write) — must allocate nothing. Sealing and index growth
// amortize away and are benchmarked, not asserted, in
// BenchmarkTSDBAppend; this test pins the per-minute hot path the
// coordinator sits on all day.
func TestTSDBAppendPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by race instrumentation")
	}
	st := openStore(t, t.TempDir(), Options{})
	const ents = 8
	names := make([]string, ents)
	for e := range names {
		names[e] = fmt.Sprintf("svc/app-%d", e)
	}
	minute := 0
	step := func() {
		for e, name := range names {
			cpu, mem := load(e, minute)
			if err := st.Append(name, Sample{Minute: minute, CPU: cpu, Mem: mem}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
		minute++
	}
	// Warm every pool and buffer through two full seal cycles, ending
	// exactly on a seal so the measured window stays inside one open
	// block (48 runs < 64): pure row commits, no index growth.
	for minute%BlockSamples != 0 || minute < 2*BlockSamples {
		step()
	}
	if allocs := testing.AllocsPerRun(48, step); allocs != 0 {
		t.Fatalf("steady-state append+commit allocates %.1f times per minute, want 0", allocs)
	}
}

// TestSealBurstBounded pins the memory of a seal burst — every entity
// of a fleet that started together sealing in one commit: the batch
// buffer holds one chunk at a time, never more than rowFrameBytes plus
// one seal frame, and a warm burst allocates the same bytes at 400 and
// at 4,000 entities. Warm bursts grow no block index: the first five
// grow every entity's to a capacity of eight, the index's own growth,
// which BenchmarkTSDBAppend amortizes, so the sixth to the eighth are
// measured. The bytes are the process's, so one allocation elsewhere in
// it would count: the smallest of the three is compared.
func TestSealBurstBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by race instrumentation")
	}
	const first, last = 6, 8 // the bursts measured
	var warm []uint64
	for _, ents := range []int{400, 4000} {
		st := openStore(t, t.TempDir(), Options{SegmentBytes: 1 << 30}) // one segment: no rotation allocates
		handles := make([]Handle, ents)
		names := make([]string, ents)
		for e := range names {
			names[e] = fmt.Sprintf("svc/app-%d", e)
		}
		minute := func(m int) {
			for e, name := range names {
				cpu, mem := load(e, m)
				if err := st.AppendTo(&handles[e], name, Sample{Minute: m, CPU: cpu, Mem: mem}); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Commit(); err != nil {
				t.Fatal(err)
			}
			if c := cap(st.pending); c > rowFrameBytes+sealFrameBytes {
				t.Fatalf("%d entities, minute %d: batch buffer capacity %d, want at most %d",
					ents, m, c, rowFrameBytes+sealFrameBytes)
			}
		}
		least, index := uint64(math.MaxUint64), 0
		for m := 0; m < last*BlockSamples; m++ {
			if (m+1)%BlockSamples != 0 || (m+1)/BlockSamples < first {
				minute(m)
				continue
			}
			if index == 0 {
				index = cap(st.ents[ents-1].blocks)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			minute(m)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		warm = append(warm, least)
		if got := len(st.ents[0].blocks); got != last {
			t.Fatalf("%d entities: %d sealed blocks after burst %d", ents, got, last)
		}
		if got := cap(st.ents[ents-1].blocks); got != index {
			t.Fatalf("%d entities: a measured burst grew the block index from %d to %d", ents, index, got)
		}
	}
	if warm[0] != warm[1] {
		t.Fatalf("a warm seal burst allocates %d B at 400 entities and %d B at 4,000", warm[0], warm[1])
	}
}

// TestLargeMinuteRowsBounded: a minute of 26,520 entities — ten times
// the bench fleet's, about 540 KiB of rows — keeps the batch buffer
// within rowFrameBytes plus one seal frame, after every append and
// every commit: a full row is written at once, not queued for Commit
// (which left 532,480 B of capacity). The rows written early replay
// like committed ones.
func TestLargeMinuteRowsBounded(t *testing.T) {
	const ents, minutes = 26520, 3
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	handles := make([]Handle, ents)
	names := make([]string, ents)
	for e := range names {
		names[e] = fmt.Sprintf("svc/app-%d", e)
	}
	bound := rowFrameBytes + sealFrameBytes
	for m := 0; m < minutes; m++ {
		for e, name := range names {
			cpu, mem := load(e, m)
			if err := st.AppendTo(&handles[e], name, Sample{Minute: m, CPU: cpu, Mem: mem}); err != nil {
				t.Fatal(err)
			}
			if c := cap(st.pending); c > bound {
				t.Fatalf("minute %d, entity %d: batch buffer capacity %d, want at most %d", m, e, c, bound)
			}
		}
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
		if c := cap(st.pending); c > bound {
			t.Fatalf("minute %d committed: batch buffer capacity %d, want at most %d", m, c, bound)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openStore(t, dir, Options{})
	for _, e := range []int{0, ents / 2, ents - 1} {
		var got []Sample
		if _, err := st.Range(st.Lookup(names[e]), 0, minutes, func(s Sample) { got = append(got, s) }); err != nil {
			t.Fatal(err)
		}
		if len(got) != minutes {
			t.Fatalf("%s replays %d samples, want %d", names[e], len(got), minutes)
		}
		for m, s := range got {
			if cpu, mem := load(e, m); s != (Sample{Minute: m, CPU: cpu, Mem: mem}) {
				t.Fatalf("%s minute %d replays %+v", names[e], m, s)
			}
		}
	}
}

// TestDictBufferBounded: the dictionary records of a 26,520-entity
// first minute pass through a buffer of their size, which the store
// drops once they are written; a later minute registering one new
// entity leaves a buffer of about one record, kept for the next (the
// first minute left 352,256 B of capacity for the store's life).
func TestDictBufferBounded(t *testing.T) {
	const ents = 26520
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	handles := make([]Handle, ents+1)
	for e := 0; e < ents; e++ {
		if err := st.AppendTo(&handles[e], fmt.Sprintf("svc/app-%d", e), Sample{Minute: 0, CPU: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if c := cap(st.dictPending); c > sealFrameBytes {
		t.Fatalf("after the %d-entity minute the dictionary buffer keeps %d B, want at most %d", ents, c, sealFrameBytes)
	}
	if err := st.AppendTo(&handles[ents], "inst/app-new", Sample{Minute: 1, CPU: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if c := cap(st.dictPending); c == 0 || c > sealFrameBytes {
		t.Fatalf("after a one-entity minute the dictionary buffer keeps %d B, want 1 to %d", c, sealFrameBytes)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openStore(t, dir, Options{})
	if s, ok := st.Latest(st.Lookup("inst/app-new")); !ok || s.Minute != 1 {
		t.Fatalf("the new entity replays as %+v, %v", s, ok)
	}
}

// BenchmarkTSDBSealBurst measures the seal burst of a store whose rows
// are warm — its 63 row-only minutes run before the clock starts — at
// the 2,652 entities of the bench's 1,007-host fleet and ten times
// that: every entity seals in the same commit, as a fleet that started
// together does at minute 64. Each iteration is a fresh store's first
// burst, what every round of the benchmark and every coordinator restart
// pays. B/op is what the commit allocates to write the burst; batch-B
// is the batch buffer's capacity afterwards, which the store keeps. The
// burst's per-entity bookkeeping — a 32 B block index entry and a place
// on the list of full blocks, 40 B an entity, kept for the store's life
// and counted in BenchmarkTSDBAppend — is reserved before the clock
// starts.
func BenchmarkTSDBSealBurst(b *testing.B) {
	for _, ents := range []int{2652, 26520} {
		b.Run(fmt.Sprint(ents), func(b *testing.B) {
			b.StopTimer()
			b.ReportAllocs()
			dir := filepath.Join(b.TempDir(), "store")
			names := make([]string, ents)
			for e := range names {
				names[e] = fmt.Sprintf("svc/app-%d", e)
			}
			for i := 0; i < b.N; i++ {
				st, err := Open(dir, Options{NoSync: true}) // closed below: a cleanup would keep every store live
				if err != nil {
					b.Fatal(err)
				}
				handles := make([]Handle, ents)
				minute := func(m int) {
					for e, name := range names {
						cpu, mem := load(e, m)
						if err := st.AppendTo(&handles[e], name, Sample{Minute: m, CPU: cpu, Mem: mem}); err != nil {
							b.Fatal(err)
						}
					}
					if err := st.Commit(); err != nil {
						b.Fatal(err)
					}
				}
				for m := 0; m < BlockSamples-1; m++ {
					minute(m)
				}
				for _, e := range st.ents {
					e.blocks = slices.Grow(e.blocks, 1)
				}
				st.full = slices.Grow(st.full, ents)
				b.StartTimer()
				minute(BlockSamples - 1)
				b.StopTimer()
				b.ReportMetric(float64(cap(st.pending)), "batch-B")
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
				if err := os.RemoveAll(dir); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTSDBAppend measures the full write path — append, seal,
// commit — at one simulated minute per iteration: across 32 entities,
// and across the 2,652 of the bench's 1,007-host fleet, where what a
// commit does per entity is what the minute pays.
func BenchmarkTSDBAppend(b *testing.B) {
	for _, ents := range []int{32, 2652} {
		b.Run(fmt.Sprint(ents), func(b *testing.B) {
			st := openStore(b, b.TempDir(), Options{})
			names := make([]string, ents)
			handles := make([]Handle, ents) // as the archive appends: resolved once
			for e := range names {
				names[e] = fmt.Sprintf("svc/app-%d", e)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for e, name := range names {
					cpu, mem := load(e, i)
					if err := st.AppendTo(&handles[e], name, Sample{Minute: i, CPU: cpu, Mem: mem}); err != nil {
						b.Fatal(err)
					}
				}
				if err := st.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTSDBOpen measures a cold start in isolation: replaying a
// 511-entity, 540-minute store (the failover drill's, one commit a
// minute) into the block index and the open blocks.
func BenchmarkTSDBOpen(b *testing.B) {
	dir := b.TempDir()
	st := openStore(b, dir, Options{})
	const ents, minutes = 511, 540
	handles := make([]Handle, ents)
	for m := 0; m < minutes; m++ {
		for e := range handles {
			cpu, mem := load(e, m)
			if err := st.AppendTo(&handles[e], fmt.Sprintf("svc/app-%d", e), Sample{Minute: m, CPU: cpu, Mem: mem}); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := Open(dir, Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := len(re.Entities()); got != ents {
			b.Fatalf("reopened %d entities, want %d", got, ents)
		}
		re.Close()
		b.StartTimer()
	}
}

// BenchmarkTSDBReadHot measures the controller's steady-state read, a
// 20-minute watch window, which the tail — the newest 64 samples —
// answers, and a 120-minute forecast read that also needs two sealed
// blocks from disk.
func BenchmarkTSDBReadHot(b *testing.B) {
	st := openStore(b, b.TempDir(), Options{})
	const minutes = 4*BlockSamples + 10
	for m := 0; m < minutes; m++ {
		cpu, mem := load(0, m)
		if err := st.Append("svc/app", Sample{Minute: m, CPU: cpu, Mem: mem}); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Commit(); err != nil {
		b.Fatal(err)
	}
	for _, span := range []int{20, 120} {
		b.Run(fmt.Sprintf("last-%d", span), func(b *testing.B) {
			var sum float64
			h := st.Lookup("svc/app")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := st.Range(h, minutes-span, minutes, func(s Sample) {
					sum += s.CPU
				}); err != nil {
					b.Fatal(err)
				}
			}
			_ = sum
		})
	}
}
