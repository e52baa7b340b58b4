package monitor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"autoglobe/internal/archive"
	"autoglobe/internal/tsdb"
)

// TestRecordByHandleMatchesString drives one random observation
// sequence through the string-keyed API (Register/Observe/Record by
// name) and through resolved handles (Watch handles, archive.Entity
// write handles) over two disk-backed archives, and demands bit-equal
// state — day profile, observation counts, ring, triggers — before and
// after both archives are closed and reopened. The string-keyed methods
// are adapters over the handle forms; this pins that they stay so, and
// that a handle resolved before the first sample, or re-resolved over a
// replayed store, writes exactly what the name would.
func TestRecordByHandleMatchesString(t *testing.T) {
	params := Params{OverloadThreshold: 0.7, OverloadWatch: 3, IdleThresholdBase: 0.125,
		IdleWatch: 5, MemOverloadThreshold: 0.8}
	const entities = 6
	key := func(e int) string {
		if e%2 == 0 {
			return archive.HostEntity(fmt.Sprintf("h%d", e))
		}
		return archive.ServiceEntity(fmt.Sprintf("s%d", e))
	}
	class := func(e int) Class { return Class(e % 2) }

	type side struct {
		dir  string
		arch *archive.Archive
		sys  *System
	}
	open := func(s *side) {
		t.Helper()
		arch, err := archive.NewBacked(s.dir, 200, tsdb.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(params, arch)
		if err != nil {
			t.Fatal(err)
		}
		s.arch, s.sys = arch, sys
	}
	byName, byHandle := &side{dir: t.TempDir()}, &side{dir: t.TempDir()}

	rng := rand.New(rand.NewSource(7))
	minute := 0
	var watches [entities]Watch
	var insts [entities]archive.Entity
	phase := func(steps int) {
		t.Helper()
		for e := 0; e < entities; e++ {
			byName.sys.Register(key(e), class(e), float64(1+e%3))
			watches[e] = byHandle.sys.Register(key(e), class(e), float64(1+e%3))
			insts[e] = byHandle.arch.Resolve(archive.InstanceEntity(fmt.Sprint(e)))
		}
		for i := 0; i < steps; i++ {
			minute += rng.Intn(3) // repeated minutes are legal, gaps too
			for e := 0; e < entities; e++ {
				if rng.Intn(5) == 0 {
					continue
				}
				if rng.Intn(40) == 0 { // a re-registration resets both alike
					byName.sys.Register(key(e), class(e), 2)
					byHandle.sys.Register(key(e), class(e), 2) // handle survives
				}
				cpu, mem := rng.Float64(), rng.Float64()
				want, err1 := byName.sys.Observe(key(e), minute, cpu, mem)
				got, err2 := byHandle.sys.ObserveWatch(watches[e], minute, cpu, mem)
				if err1 != nil || err2 != nil {
					t.Fatalf("minute %d entity %d: %v / %v", minute, e, err1, err2)
				}
				if (want == nil) != (got == nil) || (want != nil && (*want != *got ||
					math.Float64bits(want.AvgLoad) != math.Float64bits(got.AvgLoad))) {
					t.Fatalf("minute %d entity %d: trigger by handle %v, by name %v", minute, e, got, want)
				}
				s := archive.Sample{Minute: minute, CPU: cpu * 1.5}
				if err := byName.arch.Record(archive.InstanceEntity(fmt.Sprint(e)), s); err != nil {
					t.Fatal(err)
				}
				if err := insts[e].Record(s); err != nil {
					t.Fatal(err)
				}
			}
			if err := byName.arch.Maintain(minute); err != nil {
				t.Fatal(err)
			}
			if err := byHandle.arch.Maintain(minute); err != nil {
				t.Fatal(err)
			}
		}
	}
	compare := func(when string) {
		t.Helper()
		names := byName.arch.Entities()
		if got := byHandle.arch.Entities(); fmt.Sprint(got) != fmt.Sprint(names) || len(names) != 2*entities {
			t.Fatalf("%s: entities by handle %v, by name %v", when, got, names)
		}
		for _, name := range names {
			a, b := byName.arch.Entity(name), byHandle.arch.Entity(name)
			if a.Len() != b.Len() || a.DaysObserved() != b.DaysObserved() {
				t.Fatalf("%s: %s: len %d/%d, days %d/%d", when, name, a.Len(), b.Len(), a.DaysObserved(), b.DaysObserved())
			}
			for m := 0; m < archive.MinutesPerDay; m++ {
				if math.Float64bits(a.ProfileAt(m)) != math.Float64bits(b.ProfileAt(m)) ||
					a.ObservationCount(m) != b.ObservationCount(m) {
					t.Fatalf("%s: %s: day slot %d differs: %v×%d vs %v×%d", when, name, m,
						a.ProfileAt(m), a.ObservationCount(m), b.ProfileAt(m), b.ObservationCount(m))
				}
			}
			wa, err := byName.arch.Window(name, 0, minute)
			if err != nil {
				t.Fatal(err)
			}
			wb, err := byHandle.arch.Window(name, 0, minute)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wa {
				if wa[i].Minute != wb[i].Minute || math.Float64bits(wa[i].CPU) != math.Float64bits(wb[i].CPU) ||
					math.Float64bits(wa[i].Mem) != math.Float64bits(wb[i].Mem) {
					t.Fatalf("%s: %s: ring sample %d: %+v vs %+v", when, name, i, wa[i], wb[i])
				}
			}
		}
	}

	open(byName)
	open(byHandle)
	phase(400) // wraps the 200-sample rings
	compare("first life")
	for _, s := range []*side{byName, byHandle} {
		if err := s.arch.Close(); err != nil {
			t.Fatal(err)
		}
		open(s)
	}
	compare("after reopen")
	phase(300)
	compare("second life")

	// A dead handle is an error, never a silent write.
	byHandle.sys.Deregister(key(0))
	if watches[0].Live() {
		t.Fatal("handle survives Deregister")
	}
	if _, err := byHandle.sys.ObserveWatch(watches[0], minute, 0.5, 0.5); err == nil {
		t.Fatal("observation through a dead handle accepted")
	}
	if _, err := byHandle.sys.ObserveWatch(Watch{}, minute, 0.5, 0.5); err == nil {
		t.Fatal("observation through a zero handle accepted")
	}
	if err := byHandle.arch.Entity("nobody").Record(archive.Sample{Minute: minute}); err == nil {
		t.Fatal("Record through the read-only handle of an unknown entity accepted")
	}
	if byHandle.arch.Entity("nobody").Len() != 0 || len(byHandle.arch.Entities()) != 2*entities {
		t.Fatal("refused Record left a trace")
	}
}
