package archive

import (
	"math/rand"
	"testing"
)

// TestRingBoundaries pins the read rule exactly at the retention
// boundary: the sample that fills the retention, the first one past it,
// and a full lap afterwards.
func TestRingBoundaries(t *testing.T) {
	const retention = 5
	a := New(retention)
	e := "host/h"

	// Fill to exactly retention: nothing evicted, not wrapped yet.
	for m := 0; m < retention; m++ {
		if err := a.Record(e, Sample{Minute: m, CPU: float64(m)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Len(e); got != retention {
		t.Fatalf("Len = %d, want %d", got, retention)
	}
	if w, _ := a.Window(e, 0, retention-1); len(w) != retention || w[0].Minute != 0 {
		t.Fatalf("window before wraparound = %+v", w)
	}

	// One past retention: the oldest sample is gone, order preserved.
	if err := a.Record(e, Sample{Minute: retention, CPU: float64(retention)}); err != nil {
		t.Fatal(err)
	}
	if got := a.Len(e); got != retention {
		t.Fatalf("Len after wrap = %d, want %d", got, retention)
	}
	w, _ := a.Window(e, 0, retention)
	if len(w) != retention {
		t.Fatalf("window after wrap has %d samples, want %d", len(w), retention)
	}
	for i, s := range w {
		if want := i + 1; s.Minute != want {
			t.Fatalf("window[%d].Minute = %d, want %d (oldest evicted)", i, s.Minute, want)
		}
	}
	if s, ok := a.Latest(e); !ok || s.Minute != retention {
		t.Fatalf("Latest after wrap = %+v, want minute %d", s, retention)
	}

	// A full extra lap: the head walks all positions and comes back.
	for m := retention + 1; m <= 3*retention; m++ {
		if err := a.Record(e, Sample{Minute: m, CPU: 0.5}); err != nil {
			t.Fatal(err)
		}
		if s, ok := a.Latest(e); !ok || s.Minute != m {
			t.Fatalf("Latest at minute %d = %+v", m, s)
		}
		w, _ := a.Window(e, 0, m)
		if len(w) != retention {
			t.Fatalf("minute %d: window has %d samples", m, len(w))
		}
		for i := 1; i < len(w); i++ {
			if w[i].Minute != w[i-1].Minute+1 {
				t.Fatalf("minute %d: window out of order: %+v", m, w)
			}
		}
	}
}

// TestRingRejectsTimeTravel pins the ordering contract past the
// retention: the minute comparison uses the entity's true latest.
func TestRingRejectsTimeTravel(t *testing.T) {
	a := New(3)
	e := "host/h"
	for m := 0; m < 5; m++ { // wrapped: latest lives mid-slice
		if err := a.Record(e, Sample{Minute: m}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Record(e, Sample{Minute: 3}); err == nil {
		t.Fatal("out-of-order sample after wraparound accepted")
	}
	// Equal minutes are allowed (non-decreasing contract).
	if err := a.Record(e, Sample{Minute: 4}); err != nil {
		t.Fatalf("same-minute sample rejected: %v", err)
	}
}

// TestDayProfileAcrossMidnight pins the day-profile aggregation over
// several days including the midnight boundary: the profile is the
// running mean per minute of day, unaffected by the retention.
func TestDayProfileAcrossMidnight(t *testing.T) {
	a := New(10) // tiny retention: it must not disturb the profile
	keepProfiles(t, a)
	e := "svc/s"
	// Three days: minute-of-day 0 sees 0.1, 0.2, 0.3; minute-of-day
	// MinutesPerDay-1 sees 0.4, 0.6 on the first two days only.
	loads := map[int]float64{
		0:                     0.1,
		MinutesPerDay - 1:     0.4,
		MinutesPerDay:         0.2, // minute-of-day 0, day 2
		2*MinutesPerDay - 1:   0.6,
		2 * MinutesPerDay:     0.3, // minute-of-day 0, day 3
		2*MinutesPerDay + 100: 0.8,
	}
	minutes := []int{0, MinutesPerDay - 1, MinutesPerDay, 2*MinutesPerDay - 1, 2 * MinutesPerDay, 2*MinutesPerDay + 100}
	for _, m := range minutes {
		if err := a.Record(e, Sample{Minute: m, CPU: loads[m]}); err != nil {
			t.Fatal(err)
		}
	}
	p := a.DayProfile(e)
	if got, want := p[0], (0.1+0.2+0.3)/3; !approxEqual(got, want) {
		t.Errorf("profile[0] = %g, want %g", got, want)
	}
	if got, want := p[MinutesPerDay-1], (0.4+0.6)/2; !approxEqual(got, want) {
		t.Errorf("profile[last] = %g, want %g", got, want)
	}
	if got := p[100]; !approxEqual(got, 0.8) {
		t.Errorf("profile[100] = %g, want 0.8", got)
	}
	if got := p[50]; got != 0 {
		t.Errorf("unobserved minute carries %g, want 0", got)
	}
}

func approxEqual(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}

// naiveArchive is the obviously-correct reference: an unbounded slice
// truncated from the front by minute, to the minutes above latest −
// retention, and a count of every sample recorded.
type naiveArchive struct {
	retention int
	samples   map[string][]Sample
	count     map[string]int
}

func newNaive(retention int) *naiveArchive {
	return &naiveArchive{retention: retention, samples: make(map[string][]Sample), count: make(map[string]int)}
}

func (n *naiveArchive) record(entity string, s Sample) {
	log := append(n.samples[entity], s)
	for log[0].Minute <= s.Minute-n.retention {
		log = log[1:]
	}
	n.samples[entity] = log
	n.count[entity]++
}

func (n *naiveArchive) window(entity string, from, to int) []Sample {
	var out []Sample
	for _, s := range n.samples[entity] {
		if s.Minute >= from && s.Minute <= to {
			out = append(out, s)
		}
	}
	return out
}

func (n *naiveArchive) averageCPU(entity string, from, to int) (float64, bool) {
	w := n.window(entity, from, to)
	if len(w) == 0 {
		return 0, false
	}
	var sum float64
	for _, s := range w {
		sum += s.CPU
	}
	return sum / float64(len(w)), true
}

// TestRingMatchesNaive cross-checks the in-memory archive against the
// naive reference under a randomized workload: several entities, bursts
// of repeated minutes, minute gaps, and window queries spanning evicted,
// retained and future ranges.
func TestRingMatchesNaive(t *testing.T) {
	const retention = 64
	rng := rand.New(rand.NewSource(7))
	a := New(retention)
	n := newNaive(retention)
	entities := []string{"host/a", "host/b", "svc/c"}
	minute := map[string]int{}

	for step := 0; step < 5000; step++ {
		e := entities[rng.Intn(len(entities))]
		// Advance time by 0..3 minutes (0 exercises same-minute records).
		minute[e] += rng.Intn(4)
		s := Sample{Minute: minute[e], CPU: rng.Float64(), Mem: rng.Float64()}
		if err := a.Record(e, s); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		n.record(e, s)

		if step%37 != 0 {
			continue
		}
		// Random window, occasionally degenerate or fully in the past.
		from := minute[e] - rng.Intn(2*retention)
		to := from + rng.Intn(2*retention)
		gotW, _ := a.Window(e, from, to)
		wantW := n.window(e, from, to)
		if len(gotW) != len(wantW) {
			t.Fatalf("step %d: window(%s,%d,%d) has %d samples, naive %d",
				step, e, from, to, len(gotW), len(wantW))
		}
		for i := range wantW {
			if gotW[i] != wantW[i] {
				t.Fatalf("step %d: window[%d] = %+v, naive %+v", step, i, gotW[i], wantW[i])
			}
		}
		gotAvg, gotOK, _ := a.AverageCPU(e, from, to)
		wantAvg, wantOK := n.averageCPU(e, from, to)
		if gotOK != wantOK || !approxEqual(gotAvg, wantAvg) {
			t.Fatalf("step %d: avg(%s,%d,%d) = %v,%v, naive %v,%v",
				step, e, from, to, gotAvg, gotOK, wantAvg, wantOK)
		}
		if got, _ := a.Latest(e); got != s {
			t.Fatalf("step %d: Latest = %+v, want %+v", step, got, s)
		}
		wantLen := min(n.count[e], retention)
		if got := a.Len(e); got != wantLen {
			t.Fatalf("step %d: Len = %d, naive %d", step, got, wantLen)
		}
	}
}
