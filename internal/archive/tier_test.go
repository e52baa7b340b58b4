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
// both — the backed archive's partly from its ring, partly from the
// store — on ranges on and around the window edge: before Commit, after
// it, after a compacting Maintain, and after Close and reopen.
//
// The two archives retain differently only where the stream has gaps or
// repeats (by count in memory, by minute on disk — see span), so ranges
// start where both retain everything; what the backed archive returns
// below that is pinned against the rule itself.
//
// The last case is the same stream under a service instance's key: no
// day profile on either side, every ring-and-store read as for a host.
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
				if got := b.DaysObserved(entity) > 0; got != profiled(entity) {
					t.Fatalf("%s: %s has a day profile: %v", stage, entity, got)
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

// TestHotTierBytesPerEntity keeps the memory claim in tier-1, by class:
// a backed archive's host or service costs its day profile (17,280 B at
// 12 bytes a minute of day; 34,560 B before), a 128-sample ring
// (3,072 B) and a header; a service instance the ring and the header —
// and neither another full-retention ring (147 KB an entity once) —
// while an in-memory archive, which has no other place for them, still
// holds all retention samples.
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
	hosts, insts := keys(HostEntity), keys(InstanceEntity)
	a, err := NewBacked(t.TempDir(), 0, tsdb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for _, class := range []struct {
		keys  []string
		bound uint64
	}{{hosts, 21 << 10}, {insts, 4<<10 + 512}} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		a.Preallocate(class.keys...)
		runtime.GC()
		runtime.ReadMemStats(&after)
		if per := (after.HeapAlloc - before.HeapAlloc) / entities; per > class.bound {
			t.Errorf("a preallocated backed %s holds %d B of heap, want at most %d", class.keys[0], per, class.bound)
		}
	}
	if got := len(a.Entities()); got != 2*entities {
		t.Fatalf("%d entities after Preallocate, want %d", got, 2*entities)
	}

	mem := New(0)
	now := pastTheRing(t, mem, hosts[0])
	if w, _ := mem.Window(hosts[0], 0, now); len(w) != DefaultRetention || w[0].Minute != 1 {
		t.Errorf("in-memory archive returns %d samples from minute %d, want all %d from minute 1", len(w), w[0].Minute, DefaultRetention)
	}
}

// TestInstanceEntitiesKeepNoProfile pins who has a day profile. A
// service instance fed the stream of a host answers every ring-and-store
// read as the host does and every profile read with 0 — in memory, and
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
		if a.DaysObserved(host) < 2 || slices.Equal(a.DayProfile(host), zero) {
			t.Fatalf("%s: the host has no day profile: the comparison lost its teeth", stage)
		}
		wantS, _ := a.Latest(host)
		wantW, err := a.Window(host, latest-retention, latest)
		if err != nil || len(wantW) <= hotWindow {
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
	feed(mem)
	check("in memory", mem)

	dir := t.TempDir()
	backed, err := NewBacked(dir, retention, tsdb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
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
	check("reopened", re)
	if !slices.Equal(re.DayProfile(host), mem.DayProfile(host)) {
		t.Fatal("reopened: the host's day profile differs from the in-memory one")
	}
}
