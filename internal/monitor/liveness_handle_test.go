package monitor

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLivenessHandleMatchesName applies one random sequence of Beat,
// MarkDead, Forget, Sweep, Probes, Down and Tracking to two
// detectors, one fed by name and one through handles cached per entity
// for the whole run, and demands equal answers after every step. A
// handle must follow its entity through Forget (the next beat starts a
// fresh state, as by name) and MarkDead (a state it creates or marks is
// the one the handle then beats).
func TestLivenessHandleMatchesName(t *testing.T) {
	const entities = 6
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		byName, byHandle := NewLiveness(), NewLiveness()
		var handles [entities]LivenessHandle
		minute := 0
		for step := 0; step < 400; step++ {
			e := rng.Intn(entities)
			name := fmt.Sprintf("h%d", e)
			var a, b any
			switch op := rng.Intn(10); op {
			case 0, 1, 2, 3:
				m := minute - rng.Intn(4) // a replayed older beat now and then
				byName.Beat(name, m)
				byHandle.BeatHandle(&handles[e], name, m)
			case 4:
				byName.MarkDead(name, minute)
				byHandle.MarkDead(name, minute)
			case 5:
				byName.Forget(name)
				byHandle.Forget(name)
			case 6, 9:
				if op == 6 {
					minute++ // 9 sweeps the same minute again
				}
				d, r := byName.Sweep(minute)
				a = [][]string{d, r}
				d, r = byHandle.Sweep(minute)
				b = [][]string{d, r}
			case 7:
				a, b = byName.Probes(minute), byHandle.Probes(minute)
			case 8:
				a, b = byName.Down(), byHandle.Down()
			}
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("seed %d step %d: by name %v, by handle %v", seed, step, a, b)
			}
			for i := 0; i < entities; i++ {
				n := fmt.Sprintf("h%d", i)
				if byName.Tracking(n) != byHandle.Tracking(n) {
					t.Fatalf("seed %d step %d: Tracking(%s) by name %t, by handle %t", seed, step, n, byName.Tracking(n), byHandle.Tracking(n))
				}
			}
		}
	}
}

// TestLivenessHandleConcurrentBeats: 32 goroutines beat eight entities
// through one shared array of cached handles while the minute sweeps
// (Probes, Down, Sweep) and Forgets entities under them. Run
// under -race it checks the handle is touched only under the detector's
// lock; at the end every handle must resolve to the state its name
// holds — a Forget never leaves a handle beating a detached state.
func TestLivenessHandleConcurrentBeats(t *testing.T) {
	const entities, beaters = 8, 32
	l := NewLiveness()
	var handles [entities]LivenessHandle
	names := make([]string, entities)
	for i := range names {
		names[i] = fmt.Sprintf("h%d", i)
	}
	var minute atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < beaters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				e := (g + i) % entities
				l.BeatHandle(&handles[e], names[e], int(minute.Load()))
			}
		}(g)
	}
	for m := 1; m <= 1000; m++ {
		minute.Store(int64(m))
		l.Probes(m)
		l.Down()
		l.Sweep(m)
		if m%7 == 0 {
			l.Forget(names[m%entities])
		}
	}
	stop.Store(true)
	wg.Wait()

	last := int(minute.Load()) + 1
	for _, n := range names {
		l.Forget(n)
	}
	for e := range handles {
		l.BeatHandle(&handles[e], names[e], last)
	}
	for e, n := range names {
		if !l.Tracking(n) {
			t.Fatalf("%s is not tracked after a beat through its handle", n)
		}
		if l.state[n] != handles[e].st {
			t.Fatalf("the handle of %s beats a state its name does not hold", n)
		}
	}
	if probes := l.Probes(last); len(probes) != 0 {
		t.Fatalf("Probes(%d) = %v after every entity beat", last, probes)
	}
	if got := len(l.state); got != entities || !slices.Equal(l.Down(), nil) {
		t.Fatalf("%d states tracked, down %v; want %d and none", got, l.Down(), entities)
	}
}
