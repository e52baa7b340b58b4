package forecast

import (
	"math"
	"testing"

	"autoglobe/internal/archive"
)

// fill records a perfectly periodic day pattern for `days` days:
// load(t) = base + amp·sin-ish triangle peaking at noon.
func fill(t *testing.T, a *archive.Archive, entity string, days int, scale float64) {
	t.Helper()
	for d := 0; d < days; d++ {
		for m := 0; m < archive.MinutesPerDay; m++ {
			v := pattern(m) * scale
			if err := a.Record(entity, archive.Sample{Minute: d*archive.MinutesPerDay + m, CPU: v}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func pattern(m int) float64 {
	// Triangle: 0.2 at midnight, 0.8 at noon.
	half := archive.MinutesPerDay / 2
	d := m
	if d > half {
		d = archive.MinutesPerDay - d
	}
	return 0.2 + 0.6*float64(d)/float64(half)
}

func TestPredictNeedsHistory(t *testing.T) {
	a := archive.New(0)
	p := New(a)
	if _, c, ok := p.Predict("x", 0, 10); ok || c != 0 {
		t.Fatal("prediction without history reported ok")
	}
	if _, c, ok := p.Predict("x", 0, -1); ok || c != 0 {
		t.Fatal("negative horizon reported ok")
	}
	// A service instance has samples past MinHistory but keeps no day
	// profile: there is no pattern to match, so no forecast — not the
	// decayed deviation at confidence 0.
	inst := archive.InstanceEntity("app-1")
	fill(t, a, inst, 2, 1)
	now := 2*archive.MinutesPerDay - 1
	if a.Len(inst) < p.MinHistory || a.Entity(inst).DaysObserved() != 0 {
		t.Fatalf("%s: Len %d, DaysObserved %d; want history without a profile", inst, a.Len(inst), a.Entity(inst).DaysObserved())
	}
	if v, c, ok := p.Predict(inst, now, 10); ok || v != 0 || c != 0 {
		t.Fatalf("Predict on an instance = (%v, %v, %v), want (0, 0, false)", v, c, ok)
	}
	if v, c, ok := p.PredictPeakOf(p.Entity(inst), now, 30); ok || v != 0 || c != 0 {
		t.Fatalf("PredictPeakOf on an instance = (%v, %v, %v), want (0, 0, false)", v, c, ok)
	}
}

// TestPredictPeriodicPattern: with two days of clean periodic history,
// the predictor recovers the pattern an hour ahead at full confidence.
func TestPredictPeriodicPattern(t *testing.T) {
	a := archive.New(4 * archive.MinutesPerDay)
	p := New(a)
	fill(t, a, "host/Blade1", 2, 1)
	now := 2*archive.MinutesPerDay - 1
	for _, horizon := range []int{10, 60, 240} {
		got, conf, ok := p.Predict("host/Blade1", now, horizon)
		if !ok {
			t.Fatalf("no prediction at horizon %d", horizon)
		}
		want := pattern((now + horizon) % archive.MinutesPerDay)
		if math.Abs(got-want) > 0.05 {
			t.Errorf("horizon %d: predicted %.3f, pattern %.3f", horizon, got, want)
		}
		if conf != 1 {
			t.Errorf("horizon %d: confidence %.3f on complete history, want 1", horizon, conf)
		}
	}
}

// TestPredictCarriesDeviation: when today runs hotter than the pattern,
// the short-horizon forecast reflects that; at long horizons the
// pattern dominates.
func TestPredictCarriesDeviation(t *testing.T) {
	a := archive.New(4 * archive.MinutesPerDay)
	p := New(a)
	fill(t, a, "h", 2, 1)
	// Today is 0.2 hotter for the last samples.
	now := 2 * archive.MinutesPerDay
	for m := 0; m < 30; m++ {
		if err := a.Record("h", archive.Sample{Minute: now + m, CPU: pattern(m) + 0.2}); err != nil {
			t.Fatal(err)
		}
	}
	short, _, ok := p.Predict("h", now+29, 5)
	if !ok {
		t.Fatal("no short prediction")
	}
	base := pattern((now + 34) % archive.MinutesPerDay)
	if short < base+0.1 {
		t.Errorf("short horizon ignored today's deviation: %.3f vs pattern %.3f", short, base)
	}
	long, _, ok := p.Predict("h", now+29, 600)
	if !ok {
		t.Fatal("no long prediction")
	}
	baseLong := pattern((now + 29 + 600) % archive.MinutesPerDay)
	if math.Abs(long-baseLong) > 0.1 {
		t.Errorf("long horizon should follow the pattern: %.3f vs %.3f", long, baseLong)
	}
}

func TestPredictPeak(t *testing.T) {
	a := archive.New(4 * archive.MinutesPerDay)
	p := New(a)
	fill(t, a, "h", 2, 1)
	// At 10:00, the pattern still rises toward noon: the 2-hour peak
	// exceeds the current value.
	peak, conf, ok := p.PredictPeakOf(p.Entity("h"), archive.MinutesPerDay+10*60, 120)
	if !ok {
		t.Fatal("no peak prediction")
	}
	if peak < pattern(10*60) {
		t.Errorf("peak %.3f below current pattern value %.3f", peak, pattern(10*60))
	}
	if conf != 1 {
		t.Errorf("peak confidence %.3f on complete history, want 1", conf)
	}
	if _, _, ok := p.PredictPeakOf(p.Entity("h"), 0, 0); ok {
		t.Error("zero horizon reported ok")
	}
}

func TestPredictionNonNegative(t *testing.T) {
	a := archive.New(4 * archive.MinutesPerDay)
	p := New(a)
	fill(t, a, "h", 2, 0.1)
	// Today is dramatically colder; prediction must clamp at 0.
	now := 2 * archive.MinutesPerDay
	if err := a.Record("h", archive.Sample{Minute: now, CPU: 0}); err != nil {
		t.Fatal(err)
	}
	v, _, ok := p.Predict("h", now, 1)
	if !ok || v < 0 {
		t.Errorf("prediction = %.3f ok=%v, want non-negative", v, ok)
	}
}

// TestPredictConfidenceSparseHistory is the table test the ISSUE asks
// for: confidence must reflect per-minute-of-day observation depth on
// sparse and gappy history, not just a global sample-count gate.
func TestPredictConfidenceSparseHistory(t *testing.T) {
	const day = archive.MinutesPerDay
	record := func(t *testing.T, a *archive.Archive, entity string, minutes []int) {
		t.Helper()
		for _, m := range minutes {
			if err := a.Record(entity, archive.Sample{Minute: m, CPU: 0.5}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// gappy: three days of history, but minutes [600, 720) observed on
	// only one of them (the entity was down 10:00–12:00 on two days).
	gappy := func() []int {
		var ms []int
		for d := 0; d < 3; d++ {
			for m := 0; m < day; m++ {
				if m >= 600 && m < 720 && d != 1 {
					continue
				}
				ms = append(ms, d*day+m)
			}
		}
		return ms
	}()
	// gappyAnchor extends gappy with a partial fourth day whose latest
	// sample (the deviation anchor) sits inside the gap: minute-of-day
	// 700 was seen on day 1 and now day 3 → 2 of 4 observed days.
	gappyAnchor := func() []int {
		ms := append([]int(nil), gappy...)
		for m := 0; m <= 700; m++ {
			ms = append(ms, 3*day+m)
		}
		return ms
	}()
	// daytime: two days of business-hours-only traffic (08:00–18:00);
	// nighttime minutes have never been observed.
	daytime := func() []int {
		var ms []int
		for d := 0; d < 2; d++ {
			for m := 8 * 60; m < 18*60; m++ {
				ms = append(ms, d*day+m)
			}
		}
		return ms
	}()
	tests := []struct {
		name     string
		minutes  []int
		now      int
		horizon  int
		wantOK   bool
		wantConf float64
	}{
		{"full-history-full-confidence", gappy, 3*day - 1, 10, true, 1},
		// Anchor at 09:59, target 10:09 — the target minute of day was
		// seen on 1 of 3 days.
		{"gap-target-caps-confidence", gappy, 3*day + 599, 10, true, 1.0 / 3.0},
		// Anchor sits inside the gap: even with a better-observed
		// target (3/4), the deviation term is anchored on thin
		// evidence (2/4) and that caps the confidence.
		{"gap-anchor-caps-confidence", gappyAnchor, 3*day + 700, 60, true, 0.5},
		// Business-hours service predicting within business hours.
		{"daytime-in-hours", daytime, day + 10*60, 30, true, 1},
		// Predicting into the never-observed night: zero confidence,
		// but still ok — the controller decides what to do with it.
		{"daytime-into-night", daytime, day + 17*60 + 50, 30, true, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := archive.New(4 * day)
			p := New(a)
			record(t, a, "svc/app", tt.minutes)
			_, conf, ok := p.Predict("svc/app", tt.now, tt.horizon)
			if ok != tt.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tt.wantOK)
			}
			if math.Abs(conf-tt.wantConf) > 1e-12 {
				t.Fatalf("confidence = %v, want %v", conf, tt.wantConf)
			}
		})
	}
}

// TestPredictPeakConfidenceIsWindowMinimum: one profile hole inside the
// horizon caps the peak's confidence, even if the peak value itself
// comes from a well-observed minute.
func TestPredictPeakConfidenceIsWindowMinimum(t *testing.T) {
	const day = archive.MinutesPerDay
	a := archive.New(4 * day)
	p := New(a)
	for d := 0; d < 2; d++ {
		for m := 0; m < day; m++ {
			if m >= 100 && m < 105 && d == 1 {
				continue // minute-of-day hole on day 1
			}
			if err := a.Record("h", archive.Sample{Minute: d*day + m, CPU: pattern(m)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Horizon window [96, 110] spans the hole.
	_, conf, ok := p.PredictPeakOf(p.Entity("h"), 2*day+95, 15)
	if !ok {
		t.Fatal("no peak prediction")
	}
	if math.Abs(conf-0.5) > 1e-12 {
		t.Fatalf("peak confidence = %v, want 0.5 (weakest minute in window)", conf)
	}
	// A window clear of the hole keeps full confidence.
	_, conf, ok = p.PredictPeakOf(p.Entity("h"), 2*day+200, 15)
	if !ok {
		t.Fatal("no peak prediction")
	}
	if conf != 1 {
		t.Fatalf("peak confidence = %v, want 1", conf)
	}
}

// TestPredictZeroAlloc guards the controller-facing read path: Predict
// must not allocate (it runs per entity per tick inside the proactive
// scan).
func TestPredictZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by race instrumentation")
	}
	a := archive.New(2 * archive.MinutesPerDay)
	p := New(a)
	fill(t, a, "h", 2, 1)
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		v, c, _ := p.Predict("h", 2*archive.MinutesPerDay-1, 15)
		sink += v + c
	})
	if allocs != 0 {
		t.Fatalf("Predict allocates %.1f times per call, want 0", allocs)
	}
	_ = sink
}

// TestErrorMetric: on perfectly periodic data the one-step MAE is tiny;
// on white noise it is not.
func TestErrorMetric(t *testing.T) {
	a := archive.New(4 * archive.MinutesPerDay)
	p := New(a)
	fill(t, a, "h", 3, 1)
	mae, n, err := p.Error("h", 2*archive.MinutesPerDay, 3*archive.MinutesPerDay-1)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || mae > 0.02 {
		t.Errorf("MAE on clean periodic data = %.4f (n=%d), want ~0", mae, n)
	}
	if _, _, err := p.Error("ghost", 0, 10); err == nil {
		t.Error("error metric on unknown entity succeeded")
	}
}
