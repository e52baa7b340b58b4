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
// both — the backed archive's partly from its ring, partly from the
// store — on ranges on and around the window edge: before Commit, after
// it, after a compacting Maintain, and after Close and reopen.
//
// The two archives retain differently only where the stream has gaps or
// repeats (by count in memory, by minute on disk — see span), so ranges
// start where both retain everything; what the backed archive returns
// below that is pinned against the rule itself.
func TestTwoTierParity(t *testing.T) {
	const entity = "host/h"
	for _, tc := range []struct {
		name               string
		retention, samples int
	}{
		{"below the window", 300, 100},
		{"between window and retention", 300, 250},
		{"past retention", 300, 1500},
		{"retention below the window", 50, 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
			for _, s := range stream {
				if err := cmp.Or(mem.Record(entity, s), backed.Record(entity, s)); err != nil {
					t.Fatal(err)
				}
			}
			ring := min(hotWindow, tc.retention)
			edge := stream[max(0, len(stream)-ring)].Minute
			// Both archives hold every sample from floor on.
			floor := latest - tc.retention + 1
			if len(stream) > tc.retention {
				floor = max(floor, stream[len(stream)-tc.retention].Minute+1)
			}
			// The rule for everything: the newest ring samples, and below
			// them the minutes above latest − retention.
			var all []Sample
			for i, s := range stream {
				if i >= len(stream)-ring || s.Minute > latest-tc.retention {
					all = append(all, s)
				}
			}

			// mark is the store's minute watermark when b was opened: what
			// lay below it was not there to replay.
			agree := func(stage string, b *Archive, mark int) {
				t.Helper()
				all := slices.DeleteFunc(slices.Clone(all), func(s Sample) bool { return s.Minute < mark })
				got, err := b.Window(entity, math.MinInt, math.MaxInt)
				if err != nil || !slices.Equal(got, all) {
					t.Fatalf("%s: everything: %d samples, err %v; the rule gives %d", stage, len(got), err, len(all))
				}
				floor := max(floor, mark)
				for i := 0; i < 200; i++ {
					from := floor + rng.Intn(latest-floor+10)
					if i%2 == 0 {
						from = max(floor, edge-20+rng.Intn(40))
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
				if got, want := b.Len(entity), ref.Len(entity); got != want {
					t.Fatalf("%s: Len = %d, in memory %d", stage, got, want)
				}
				if got, want := b.DaysObserved(entity), ref.DaysObserved(entity); got != want {
					t.Fatalf("%s: DaysObserved = %d, in memory %d", stage, got, want)
				}
				if !slices.Equal(b.DayProfile(entity), ref.DayProfile(entity)) {
					t.Fatalf("%s: DayProfile differs from the in-memory one", stage)
				}
			}

			agree("before Commit", backed, 0)
			sameProfile("before Commit", backed, mem)
			if err := backed.Commit(); err != nil {
				t.Fatal(err)
			}
			agree("after Commit", backed, 0)
			if err := backed.Maintain(latest / 60 * 60); err != nil {
				t.Fatal(err)
			}
			mark := backed.Store().Watermark(tsdb.TierMinute)
			if tc.samples > tc.retention && mark <= stream[0].Minute {
				t.Fatalf("Maintain(%d) left the minute watermark at %d, below the stream: nothing was compacted", latest/60*60, mark)
			}
			agree("after Maintain", backed, 0)
			sameProfile("after Maintain", backed, mem)
			if err := backed.Close(); err != nil {
				t.Fatal(err)
			}

			// Closed: the memory tier still answers; a read the store would
			// have to finish fails — it does not come back short.
			if s, ok := backed.Latest(entity); !ok || s.Minute != latest {
				t.Fatalf("closed: Latest = %+v, %v", s, ok)
			}
			if w, err := backed.Window(entity, edge+1, latest); err != nil || len(w) == 0 {
				t.Fatalf("closed: a read inside the ring: %d samples, %v", len(w), err)
			}
			if deep := len(stream) > ring && latest-tc.retention < edge; deep {
				if w, err := backed.Window(entity, math.MinInt, latest); !errors.Is(err, tsdb.ErrClosed) || w != nil {
					t.Fatalf("closed: a read below the ring returned %d samples, err %v; want tsdb.ErrClosed", len(w), err)
				}
				if _, ok, err := backed.AverageCPU(entity, math.MinInt, latest); !errors.Is(err, tsdb.ErrClosed) || ok {
					t.Fatalf("closed: AverageCPU below the ring: ok %v, err %v; want tsdb.ErrClosed", ok, err)
				}
				if _, ok, err := backed.PercentileCPU(entity, math.MinInt, latest, 0.5); !errors.Is(err, tsdb.ErrClosed) || ok {
					t.Fatalf("closed: PercentileCPU below the ring: ok %v, err %v; want tsdb.ErrClosed", ok, err)
				}
			} else if tc.retention > hotWindow && tc.samples > hotWindow {
				t.Fatal("no read of this stream reaches the store: the case lost its teeth")
			}

			// A reopened archive is rebuilt from what compaction left at
			// minute resolution, as if only that had ever been recorded.
			re, err := NewBacked(dir, tc.retention, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			survivors := New(tc.retention)
			for _, s := range stream {
				if s.Minute >= mark {
					survivors.Record(entity, s)
				}
			}
			agree("reopened", re, mark)
			sameProfile("reopened", re, survivors)
		})
	}
}

// pastTheRing returns an archive holding one entity whose ring is full
// and has started to evict, and the minute of its newest sample.
func pastTheRing(t testing.TB, a *Archive, entity string) int {
	n := a.window + 1
	for m := 0; m < n; m++ {
		if err := a.Record(entity, Sample{Minute: m, CPU: 0.5, Mem: 0.25}); err != nil {
			t.Fatal(err)
		}
	}
	return n - 1
}

// TestWatchAverageZeroAlloc guards the controller's hot read: watchTime
// averages are summed where the samples lie. Before, every call on a
// ring that had wrapped copied the whole ring (103,680 B at the default
// retention) and then the window.
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
		now := pastTheRing(t, a, "host/h")
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

// TestHotTierBytesPerEntity keeps the memory claim in tier-1: a backed
// archive's entity costs its day profile (34,560 B), a 128-sample ring
// (3,072 B) and a header — not another full-retention ring (147 KB an
// entity before) — while an in-memory archive, which has no other place
// for them, still holds all retention samples.
func TestHotTierBytesPerEntity(t *testing.T) {
	const entities = 1000
	keys := make([]string, entities)
	for i := range keys {
		keys[i] = HostEntity(fmt.Sprintf("h%04d", i))
	}
	a, err := NewBacked(t.TempDir(), 0, tsdb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	a.Preallocate(keys...)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if per := (after.HeapAlloc - before.HeapAlloc) / entities; per > 40<<10 {
		t.Errorf("a preallocated backed entity holds %d B of heap, want at most %d", per, 40<<10)
	}
	if got := len(a.Entities()); got != entities {
		t.Fatalf("%d entities after Preallocate, want %d", got, entities)
	}

	mem := New(0)
	now := pastTheRing(t, mem, keys[0])
	if w, _ := mem.Window(keys[0], 0, now); len(w) != DefaultRetention || w[0].Minute != 1 {
		t.Errorf("in-memory archive returns %d samples from minute %d, want all %d from minute 1", len(w), w[0].Minute, DefaultRetention)
	}
}
