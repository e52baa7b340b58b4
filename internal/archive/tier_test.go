package archive

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"autoglobe/internal/tsdb"
)

// gappyStream is a seeded sample stream with what a real landscape
// produces around restarts and partitions: mostly consecutive minutes,
// some repeated, some skipped.
func gappyStream(rng *rand.Rand, n int) []Sample {
	out := make([]Sample, n)
	minute := rng.Intn(MinutesPerDay)
	for i := range out {
		switch rng.Intn(10) {
		case 0: // the same minute again
		case 1:
			minute += 2 + rng.Intn(6)
		default:
			minute++
		}
		out[i] = Sample{Minute: minute, CPU: rng.Float64(), Mem: rng.Float64()}
	}
	return out
}

// TestTwoTierParity feeds one stream to an in-memory archive and to a
// backed one of the same retention and demands the same answers from
// both — the backed archive's partly from the tail in memory, partly
// from sealed blocks on disk — on ranges on and around the tail's edge:
// before Commit, after it, after a compacting Maintain, and after Close
// and reopen. Both archives follow one rule everywhere, the minutes
// above latest − retention, gaps and repeats included; what they return
// is pinned against the rule itself. "The window" in the case names is
// the tail, the newest 64 samples.
//
// The last case is the same stream under a service instance's key: no
// day profile on either side, every read as for a host.
func TestTwoTierParity(t *testing.T) {
	for _, tc := range []struct {
		name               string
		entity             string
		retention, samples int
	}{
		{"below the window", "host/h", 300, 100},
		{"between window and retention", "host/h", 300, 250},
		{"past retention", "host/h", 300, 1500},
		{"retention below the window", "host/h", 50, 400},
		{"past retention, an instance", InstanceEntity("h"), 300, 1500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			entity := tc.entity
			rng := rand.New(rand.NewSource(int64(tc.samples)))
			stream := gappyStream(rng, tc.samples)
			latest := stream[len(stream)-1].Minute
			dir := t.TempDir()
			opts := tsdb.Options{NoSync: true, SegmentBytes: 8 << 10}
			mem := New(tc.retention)
			backed, err := NewBacked(dir, tc.retention, opts)
			if err != nil {
				t.Fatal(err)
			}
			keepProfiles(t, mem, backed)
			for _, s := range stream {
				if err := cmp.Or(mem.Record(entity, s), backed.Record(entity, s)); err != nil {
					t.Fatal(err)
				}
			}
			// The tail is the newest BlockSamples samples.
			tail := max(0, len(stream)-tsdb.BlockSamples)
			edge := stream[tail].Minute
			// The rule for everything: the minutes above latest − retention.
			floor := latest - tc.retention + 1
			var all []Sample
			for _, s := range stream {
				if s.Minute >= floor {
					all = append(all, s)
				}
			}

			agree := func(stage string, b *Archive) {
				t.Helper()
				got, err := b.Window(entity, math.MinInt, math.MaxInt)
				if err != nil || !slices.Equal(got, all) {
					t.Fatalf("%s: everything: %d samples, err %v; the rule gives %d", stage, len(got), err, len(all))
				}
				for i := 0; i < 200; i++ {
					from := floor - 50 + rng.Intn(latest-floor+60)
					if i%2 == 0 {
						from = edge - 20 + rng.Intn(40)
					}
					to := from + rng.Intn(80)
					want, _ := mem.Window(entity, from, to)
					got, err := b.Window(entity, from, to)
					if err != nil || !slices.Equal(got, want) {
						t.Fatalf("%s: Window(%d, %d): %d samples, err %v; in memory %d", stage, from, to, len(got), err, len(want))
					}
					wantCPU, wantOK, _ := mem.AverageCPU(entity, from, to)
					gotCPU, gotOK, err := b.AverageCPU(entity, from, to)
					if err != nil || gotOK != wantOK || gotCPU != wantCPU {
						t.Fatalf("%s: AverageCPU(%d, %d) = %v, %v, %v; in memory %v, %v", stage, from, to, gotCPU, gotOK, err, wantCPU, wantOK)
					}
					wantMem, wantOK, _ := mem.AverageMem(entity, from, to)
					gotMem, gotOK, err := b.AverageMem(entity, from, to)
					if err != nil || gotOK != wantOK || gotMem != wantMem {
						t.Fatalf("%s: AverageMem(%d, %d) = %v, %v, %v; in memory %v, %v", stage, from, to, gotMem, gotOK, err, wantMem, wantOK)
					}
					wantP, wantOK, _ := mem.PercentileCPU(entity, from, to, 0.95)
					gotP, gotOK, err := b.PercentileCPU(entity, from, to, 0.95)
					if err != nil || gotOK != wantOK || gotP != wantP {
						t.Fatalf("%s: PercentileCPU(%d, %d) = %v, %v, %v; in memory %v, %v", stage, from, to, gotP, gotOK, err, wantP, wantOK)
					}
				}
				wantS, _ := mem.Latest(entity)
				wantLast, _ := mem.LastMinute()
				gotS, _ := b.Latest(entity)
				if gotLast, ok := b.LastMinute(); !ok || gotLast != wantLast || gotS != wantS {
					t.Fatalf("%s: Latest %+v, LastMinute %d; in memory %+v, %d", stage, gotS, gotLast, wantS, wantLast)
				}
			}
			// sameProfile compares what ingest alone builds, against the
			// in-memory archive that ingested the same samples.
			sameProfile := func(stage string, b, ref *Archive) {
				t.Helper()
				if got := b.Entity(entity).DaysObserved() > 0; got != profiled(entity) {
					t.Fatalf("%s: %s has a day profile: %v", stage, entity, got)
				}
				if got, want := b.Len(entity), ref.Len(entity); got != want {
					t.Fatalf("%s: Len = %d, in memory %d", stage, got, want)
				}
				if got, want := b.Entity(entity).DaysObserved(), ref.Entity(entity).DaysObserved(); got != want {
					t.Fatalf("%s: DaysObserved = %d, in memory %d", stage, got, want)
				}
				if !slices.Equal(b.DayProfile(entity), ref.DayProfile(entity)) {
					t.Fatalf("%s: DayProfile differs from the in-memory one", stage)
				}
			}

			agree("before Commit", backed)
			sameProfile("before Commit", backed, mem)
			if err := backed.Commit(); err != nil {
				t.Fatal(err)
			}
			agree("after Commit", backed)
			if err := backed.Maintain(latest / 60 * 60); err != nil {
				t.Fatal(err)
			}
			mark := backed.Store().Watermark()
			if tc.samples > tc.retention && mark <= stream[0].Minute {
				t.Fatalf("Maintain(%d) left the minute watermark at %d, below the stream: nothing was compacted", latest/60*60, mark)
			}
			agree("after Maintain", backed)
			sameProfile("after Maintain", backed, mem)
			if err := backed.Close(); err != nil {
				t.Fatal(err)
			}

			// Closed: the tail still answers; a read that needs a sealed
			// block from disk fails — it does not come back short.
			if s, ok := backed.Latest(entity); !ok || s.Minute != latest {
				t.Fatalf("closed: Latest = %+v, %v", s, ok)
			}
			if w, err := backed.Window(entity, edge+1, latest); err != nil || len(w) == 0 {
				t.Fatalf("closed: a read inside the tail: %d samples, %v", len(w), err)
			}
			if deep := tail > 0 && stream[tail-1].Minute >= floor; deep {
				if w, err := backed.Window(entity, math.MinInt, latest); !errors.Is(err, tsdb.ErrClosed) || w != nil {
					t.Fatalf("closed: a read below the tail returned %d samples, err %v; want tsdb.ErrClosed", len(w), err)
				}
				if _, ok, err := backed.AverageCPU(entity, math.MinInt, latest); !errors.Is(err, tsdb.ErrClosed) || ok {
					t.Fatalf("closed: AverageCPU below the tail: ok %v, err %v; want tsdb.ErrClosed", ok, err)
				}
				if _, ok, err := backed.PercentileCPU(entity, math.MinInt, latest, 0.5); !errors.Is(err, tsdb.ErrClosed) || ok {
					t.Fatalf("closed: PercentileCPU below the tail: ok %v, err %v; want tsdb.ErrClosed", ok, err)
				}
			} else if tc.retention > 2*tsdb.BlockSamples && tc.samples > 2*tsdb.BlockSamples {
				t.Fatal("no read of this stream reaches the disk: the case lost its teeth")
			}

			// A reopened archive is rebuilt from what compaction left at
			// minute resolution, as if only that had ever been recorded.
			re, err := NewBacked(dir, tc.retention, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			survivors := New(tc.retention)
			keepProfiles(t, re, survivors)
			for _, s := range stream {
				if s.Minute >= mark {
					survivors.Record(entity, s)
				}
			}
			agree("reopened", re)
			sameProfile("reopened", re, survivors)
		})
	}
}

// pastTheTail records one entity's samples until a block lies below
// its tail, and returns the minute of the newest.
func pastTheTail(t testing.TB, a *Archive, entity string) int {
	n := 2*tsdb.BlockSamples + 1
	for m := 0; m < n; m++ {
		if err := a.Record(entity, Sample{Minute: m, CPU: 0.5, Mem: 0.25}); err != nil {
			t.Fatal(err)
		}
	}
	return n - 1
}

// TestWatchAverageZeroAlloc guards the controller's hot read: watchTime
// averages are summed where the samples lie, in the store's tail. Once,
// every call on a ring that had wrapped copied the whole ring (103,680 B
// at the default retention) and then the window.
func TestWatchAverageZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by race instrumentation")
	}
	backed, err := NewBacked(t.TempDir(), 0, tsdb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer backed.Close()
	for name, a := range map[string]*Archive{"in memory": New(0), "backed": backed} {
		now := pastTheTail(t, a, "host/h")
		for _, watch := range []int{10, 20} {
			allocs := testing.AllocsPerRun(100, func() {
				cpu, ok, err := a.AverageCPU("host/h", now-watch, now)
				mem, ok2, err2 := a.AverageMem("host/h", now-watch, now)
				if !ok || !ok2 || err != nil || err2 != nil || cpu != 0.5 || mem != 0.25 {
					t.Fatalf("%s: averages %v, %v (%v, %v, %v, %v)", name, cpu, mem, ok, ok2, err, err2)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: a %d-minute watch average allocates %.1f times, want 0", name, watch, allocs)
			}
		}
	}
}

// TestHotTierBytesPerEntity keeps the memory claim in tier-1, by class:
// an archive that keeps profiles holds a host's or service's day profile
// (17,280 B at 12 bytes a minute of day) and a header, a service
// instance's header alone — no samples of its own. Beside each, the tsdb
// entity that holds the samples: its tail, one block inline, whatever
// the class — 1,896 B measured plus 20 % and rounded.
func TestHotTierBytesPerEntity(t *testing.T) {
	if size := unsafe.Sizeof(dayProfile{}); size > 12*MinutesPerDay {
		t.Errorf("a day profile is %d B, want at most %d (12 a minute of day)", size, 12*MinutesPerDay)
	}
	const entities = 1000
	keys := func(key func(string) string) []string {
		out := make([]string, entities)
		for i := range out {
			out[i] = key(fmt.Sprintf("h%04d", i))
		}
		return out
	}
	a, err := NewBacked(t.TempDir(), 0, tsdb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	keepProfiles(t, a)
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for _, class := range []struct {
		keys           []string
		archive, store uint64
	}{{keys(HostEntity), 17<<10 + 256, 2<<10 + 256}, {keys(InstanceEntity), 256, 2<<10 + 256}} {
		before := heap()
		a.Preallocate(class.keys...)
		preallocated := heap()
		for _, k := range class.keys {
			if err := a.Record(k, Sample{Minute: 1}); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Commit(); err != nil {
			t.Fatal(err)
		}
		recorded := heap()
		if per := (preallocated - before) / entities; per > class.archive {
			t.Errorf("a preallocated %s holds %d B of archive heap, want at most %d", class.keys[0], per, class.archive)
		}
		if per := (recorded - preallocated) / entities; per > class.store {
			t.Errorf("a recorded %s holds %d B of tsdb heap, want at most %d", class.keys[0], per, class.store)
		}
	}
	if got := len(a.Entities()); got != 2*entities {
		t.Fatalf("%d entities after Preallocate, want %d", got, 2*entities)
	}
}

// TestInstanceEntitiesKeepNoProfile pins who has a day profile. A
// service instance fed the stream of a host answers every sample read as
// the host does and every profile read with 0 — in memory, and
// backed before Commit, after it and after Close and reopen, where the
// class is rebuilt from the name alone. All instances share one empty
// profile; recording through several must leave it empty for the next
// instance and for an entity the archive has never seen.
func TestInstanceEntitiesKeepNoProfile(t *testing.T) {
	const retention = 300
	stream := gappyStream(rand.New(rand.NewSource(19)), 2*MinutesPerDay)
	latest := stream[len(stream)-1].Minute
	host, insts := HostEntity("h"), []string{InstanceEntity("a-1"), InstanceEntity("a-2"), InstanceEntity("b-1")}
	zero := make([]float64, MinutesPerDay)

	check := func(stage string, a *Archive) {
		t.Helper()
		if a.Entity(host).DaysObserved() < 2 || slices.Equal(a.DayProfile(host), zero) {
			t.Fatalf("%s: the host has no day profile: the comparison lost its teeth", stage)
		}
		wantS, _ := a.Latest(host)
		wantW, err := a.Window(host, latest-retention, latest)
		if err != nil || len(wantW) <= 2*tsdb.BlockSamples {
			t.Fatalf("%s: host window: %d samples, %v", stage, len(wantW), err)
		}
		wantAvg, _, _ := a.AverageCPU(host, latest-20, latest)
		for _, inst := range append([]string{InstanceEntity("never-recorded"), "host/ghost"}, insts...) {
			e := a.Entity(inst)
			for m := 0; m < MinutesPerDay; m++ {
				if e.ProfileAt(m) != 0 || e.ObservationCount(m) != 0 {
					t.Fatalf("%s: %s minute %d: profile %v over %d observations, want none",
						stage, inst, m, e.ProfileAt(m), e.ObservationCount(m))
				}
			}
			if d := e.DaysObserved(); d != 0 || !slices.Equal(a.DayProfile(inst), zero) {
				t.Fatalf("%s: %s: DaysObserved %d or a non-zero DayProfile", stage, inst, d)
			}
			if !slices.Contains(insts, inst) {
				continue // never recorded: nothing to compare
			}
			if s, ok := e.Latest(); !ok || s != wantS || e.Len() != a.Len(host) {
				t.Fatalf("%s: %s: Latest %+v, Len %d; the host %+v, %d", stage, inst, s, e.Len(), wantS, a.Len(host))
			}
			if w, err := a.Window(inst, latest-retention, latest); err != nil || !slices.Equal(w, wantW) {
				t.Fatalf("%s: %s: Window: %d samples, %v; the host %d", stage, inst, len(w), err, len(wantW))
			}
			if avg, ok, err := a.AverageCPU(inst, latest-20, latest); err != nil || !ok || avg != wantAvg {
				t.Fatalf("%s: %s: AverageCPU = %v, %v, %v; the host %v", stage, inst, avg, ok, err, wantAvg)
			}
		}
	}
	feed := func(a *Archive) {
		t.Helper()
		handles := []Entity{a.Resolve(host)}
		for _, inst := range insts {
			handles = append(handles, a.Resolve(inst))
		}
		for _, s := range stream {
			for _, h := range handles {
				if err := h.Record(s); err != nil {
					t.Fatal(err)
				}
			}
		}
		a.Resolve(InstanceEntity("never-recorded")) // created after the others wrote
	}

	mem := New(retention)
	keepProfiles(t, mem)
	feed(mem)
	check("in memory", mem)

	dir := t.TempDir()
	backed, err := NewBacked(dir, retention, tsdb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	keepProfiles(t, backed)
	feed(backed)
	check("before Commit", backed)
	if err := backed.Commit(); err != nil {
		t.Fatal(err)
	}
	check("after Commit", backed)
	if err := backed.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewBacked(dir, retention, tsdb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	keepProfiles(t, re)
	check("reopened", re)
	if !slices.Equal(re.DayProfile(host), mem.DayProfile(host)) {
		t.Fatal("reopened: the host's day profile differs from the in-memory one")
	}
}
