package tsdb

import (
	"fmt"
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
// are non-decreasing, and nothing lands below the compaction watermark.
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
	// Push two hours of data, compact the first away, then try to write
	// into the downsampled past.
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
	if wm := st.Watermark(TierMinute); wm != 120 {
		t.Fatalf("watermark %d, want 120", wm)
	}
	if err := st.Append("svc/b", Sample{Minute: 60}); err == nil {
		t.Fatal("append below the compaction watermark accepted")
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

// TestStitchedReadAcrossTiers compacts a multi-day history into all
// three tiers and proves ReadSeries serves each span at the right
// resolution with exact sums — day aggregates below the hour→day
// watermark, hour aggregates up to the minute→hour watermark, raw
// samples above it.
func TestStitchedReadAcrossTiers(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	const minutes = 2 * 1440
	for m := 0; m < minutes; m++ {
		cpu, mem := load(0, m)
		if err := st.Append("host/b1", Sample{Minute: m, CPU: cpu, Mem: mem}); err != nil {
			t.Fatal(err)
		}
		if m%10 == 9 {
			if err := st.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	// Minute tier keeps [1500, 2880); hours cover [1440, 1500); the
	// first full day rolls into one day aggregate.
	if err := st.CompactBefore(1500); err != nil {
		t.Fatal(err)
	}
	if wm := st.Watermark(TierMinute); wm != 1500 {
		t.Fatalf("minute watermark %d, want 1500", wm)
	}
	if wm := st.Watermark(TierHour); wm != 1440 {
		t.Fatalf("hour watermark %d, want 1440", wm)
	}

	verify := func(label string, st *Store) {
		t.Helper()
		var buf SeriesBuf
		if err := st.ReadSeries("host/b1", 0, minutes, &buf); err != nil {
			t.Fatal(err)
		}
		if len(buf.Days) != 1 || buf.Days[0].Start != 0 || buf.Days[0].N != 1440 {
			t.Fatalf("%s: days = %+v, want one 1440-sample aggregate at 0", label, buf.Days)
		}
		if len(buf.Hours) != 1 || buf.Hours[0].Start != 1440 || buf.Hours[0].N != 60 {
			t.Fatalf("%s: hours = %+v, want one 60-sample aggregate at 1440", label, buf.Hours)
		}
		if len(buf.Minutes) != minutes-1500 {
			t.Fatalf("%s: %d raw minutes, want %d", label, len(buf.Minutes), minutes-1500)
		}
		var wantDay, wantHour Agg
		for m := 0; m < 1440; m++ {
			cpu, mem := load(0, m)
			wantDay.SumCPU += cpu
			wantDay.SumMem += mem
		}
		for m := 1440; m < 1500; m++ {
			cpu, mem := load(0, m)
			wantHour.SumCPU += cpu
			wantHour.SumMem += mem
		}
		// Exact float equality: the roll-up folds chronologically, the
		// same order this loop adds in. The day tier folds hour sums,
		// which associates identically here because each hour's sum is
		// folded in hour order.
		if buf.Hours[0].SumCPU != wantHour.SumCPU || buf.Hours[0].SumMem != wantHour.SumMem {
			t.Fatalf("%s: hour sums %+v, want %+v", label, buf.Hours[0], wantHour)
		}
		if buf.Minutes[0].Minute != 1500 {
			t.Fatalf("%s: first raw minute %d, want 1500", label, buf.Minutes[0].Minute)
		}
	}
	verify("live", st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	verify("reopened", openStore(t, dir, Options{}))
}

// TestCompactionPrunesSegments proves roll-up reclaims disk: minute
// segments wholly below the watermark are deleted, while straddling and
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
	// The survivors still serve the uncompacted range and the roll-up.
	if got := collect(t, st, "svc/a", 0, 3000); len(got) != 3000-2880 {
		t.Fatalf("%d raw minutes after compaction, want %d", len(got), 3000-2880)
	}
	var buf SeriesBuf
	if err := st.ReadSeries("svc/a", 0, 3000, &buf); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, a := range buf.Days {
		total += a.N
	}
	for _, a := range buf.Hours {
		total += a.N
	}
	if total+len(buf.Minutes) != 3000 {
		t.Fatalf("stitched view covers %d samples, want 3000", total+len(buf.Minutes))
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
// at 4,000 entities. Warm is the fourth burst: the first three grow
// every entity's block index to a capacity of four, the index's own
// growth, which BenchmarkTSDBAppend amortizes.
func TestSealBurstBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by race instrumentation")
	}
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
		last := 4*BlockSamples - 1
		for m := 0; m < last; m++ {
			minute(m)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		minute(last)
		runtime.ReadMemStats(&after)
		warm = append(warm, after.TotalAlloc-before.TotalAlloc)
		if got := len(st.ents[0].blocks); got != 4 {
			t.Fatalf("%d entities: %d sealed blocks after the fourth burst", ents, got)
		}
	}
	if warm[0] != warm[1] {
		t.Fatalf("a warm seal burst allocates %d B at 400 entities and %d B at 4,000", warm[0], warm[1])
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
// burst's per-entity bookkeeping — a block index entry and a place on
// the list of full blocks, 56 B an entity, kept for the store's life and
// counted in BenchmarkTSDBAppend — is reserved before the clock starts.
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
// 20-minute watch window, which the tail — the open block and the
// newest sealed one — answers, and a 120-minute forecast read that also
// needs the sealed block below the tail, from disk.
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
