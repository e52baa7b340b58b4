package archive

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRecordAndLatest(t *testing.T) {
	a := New(0)
	if _, ok := a.Latest("x"); ok {
		t.Error("Latest on empty archive returned a sample")
	}
	if err := a.Record("x", Sample{Minute: 1, CPU: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := a.Record("x", Sample{Minute: 2, CPU: 0.7}); err != nil {
		t.Fatal(err)
	}
	s, ok := a.Latest("x")
	if !ok || s.Minute != 2 || s.CPU != 0.7 {
		t.Fatalf("Latest = %+v, %v", s, ok)
	}
}

func TestRecordRejectsTimeTravel(t *testing.T) {
	a := New(0)
	if err := a.Record("x", Sample{Minute: 10}); err != nil {
		t.Fatal(err)
	}
	if err := a.Record("x", Sample{Minute: 5}); err == nil {
		t.Error("out-of-order sample accepted")
	}
}

func TestWindowAndAverage(t *testing.T) {
	a := New(0)
	for m := 0; m < 10; m++ {
		if err := a.Record("x", Sample{Minute: m, CPU: float64(m) / 10, Mem: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	w, _ := a.Window("x", 3, 6)
	if len(w) != 4 || w[0].Minute != 3 || w[3].Minute != 6 {
		t.Fatalf("Window(3,6) = %+v", w)
	}
	avg, ok, _ := a.AverageCPU("x", 3, 6)
	if !ok || math.Abs(avg-0.45) > 1e-9 {
		t.Errorf("AverageCPU = %g, want 0.45", avg)
	}
	mem, ok, _ := a.AverageMem("x", 0, 9)
	if !ok || math.Abs(mem-0.5) > 1e-9 {
		t.Errorf("AverageMem = %g, want 0.5", mem)
	}
	if _, ok, _ := a.AverageCPU("x", 100, 200); ok {
		t.Error("empty window reported ok")
	}
	if w, _ := a.Window("ghost", 0, 10); w != nil {
		t.Error("unknown entity window not nil")
	}
}

func TestRingBufferEviction(t *testing.T) {
	a := New(5)
	for m := 0; m < 12; m++ {
		if err := a.Record("x", Sample{Minute: m, CPU: float64(m)}); err != nil {
			t.Fatal(err)
		}
	}
	if a.Len("x") != 5 {
		t.Fatalf("Len = %d, want 5", a.Len("x"))
	}
	w, _ := a.Window("x", 0, 100)
	if len(w) != 5 || w[0].Minute != 7 || w[4].Minute != 11 {
		t.Fatalf("window after eviction = %+v", w)
	}
	s, ok := a.Latest("x")
	if !ok || s.Minute != 11 {
		t.Fatalf("Latest after eviction = %+v", s)
	}
}

// keepProfiles turns the day profiles of every archive on.
func keepProfiles(t testing.TB, archives ...*Archive) {
	t.Helper()
	for _, a := range archives {
		if err := a.KeepProfiles(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDayProfileAggregation(t *testing.T) {
	a := New(0)
	keepProfiles(t, a)
	// Same minute-of-day on three consecutive days: 0.2, 0.4, 0.6.
	for day, cpu := range []float64{0.2, 0.4, 0.6} {
		if err := a.Record("x", Sample{Minute: day*MinutesPerDay + 100, CPU: cpu}); err != nil {
			t.Fatal(err)
		}
	}
	prof := a.DayProfile("x")
	if math.Abs(prof[100]-0.4) > 1e-9 {
		t.Errorf("day profile at minute 100 = %g, want 0.4", prof[100])
	}
	if prof[101] != 0 {
		t.Errorf("unobserved minute = %g, want 0", prof[101])
	}
	if got := a.DayProfile("ghost"); len(got) != MinutesPerDay {
		t.Error("DayProfile for unknown entity must still have full length")
	}
}

func TestDayProfileSurvivesEviction(t *testing.T) {
	// The aggregated day profile must retain history even after raw
	// samples are evicted: that is the "persistent aggregated view".
	a := New(10)
	keepProfiles(t, a)
	for m := 0; m < 100; m++ {
		if err := a.Record("x", Sample{Minute: m, CPU: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if a.Len("x") != 10 {
		t.Fatal("eviction did not happen")
	}
	prof := a.DayProfile("x")
	if prof[0] != 1 {
		t.Errorf("day profile lost evicted history: minute 0 = %g", prof[0])
	}
}

func TestEntities(t *testing.T) {
	a := New(0)
	a.Record("b", Sample{})
	a.Record("a", Sample{})
	got := a.Entities()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Entities = %v", got)
	}
}

func TestPercentileCPU(t *testing.T) {
	a := New(0)
	for m := 0; m < 100; m++ {
		if err := a.Record("x", Sample{Minute: m, CPU: float64(m) / 100}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0.5, 0.495}, {0.95, 0.9405}, {1.0, 0.99},
	}
	for _, c := range cases {
		got, ok, _ := a.PercentileCPU("x", 0, 99, c.p)
		if !ok || math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%.0f = %g (ok=%v), want %g", c.p*100, got, ok, c.want)
		}
	}
	if _, ok, _ := a.PercentileCPU("x", 0, 99, 0); ok {
		t.Error("p0 accepted")
	}
	if _, ok, _ := a.PercentileCPU("x", 0, 99, 1.1); ok {
		t.Error("p>1 accepted")
	}
	if _, ok, _ := a.PercentileCPU("ghost", 0, 99, 0.5); ok {
		t.Error("unknown entity reported ok")
	}
	// Single sample: every quantile is that sample.
	a.Record("one", Sample{Minute: 0, CPU: 0.42})
	if got, ok, _ := a.PercentileCPU("one", 0, 0, 0.95); !ok || got != 0.42 {
		t.Errorf("single-sample p95 = %g", got)
	}
}

// TestPropPercentileMonotone: quantiles are monotone in p and bounded
// by the window's min and max.
func TestPropPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		a := New(0)
		n := 0
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			v = math.Mod(math.Abs(v), 1)
			a.Record("x", Sample{Minute: i, CPU: v})
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			n++
		}
		if n == 0 {
			return true
		}
		prev := -1.0
		for _, p := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
			q, ok, _ := a.PercentileCPU("x", 0, len(raw), p)
			if !ok || q < prev-1e-12 || q < lo-1e-9 || q > hi+1e-9 {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropWindowAverageWithinBounds: the windowed average always lies
// between the minimum and maximum recorded CPU values.
func TestPropWindowAverageWithinBounds(t *testing.T) {
	f := func(raw []float64) bool {
		a := New(0)
		lo, hi := math.Inf(1), math.Inf(-1)
		n := 0
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			v = math.Mod(math.Abs(v), 1)
			if err := a.Record("x", Sample{Minute: i, CPU: v}); err != nil {
				return false
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			n++
		}
		if n == 0 {
			return true
		}
		avg, ok, _ := a.AverageCPU("x", 0, len(raw))
		return ok && avg >= lo-1e-9 && avg <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
