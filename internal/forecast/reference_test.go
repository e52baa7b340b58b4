package forecast

import (
	"math"
	"math/rand"
	"testing"

	"autoglobe/internal/archive"
)

// refPredictor is the predictor as it was before the single-pass
// kernel, kept as the oracle: one string-keyed archive read per value,
// everything recomputed per horizon minute, and the entity's observed
// depth taken from a full scan of the 1,440 per-minute counts (passed
// in as days — scanning it per call is what made the original slow).
type refPredictor struct {
	arch       *archive.Archive
	halfLife   float64
	minHistory int
}

func refDays(a *archive.Archive, entity string) int {
	most := 0
	for m := 0; m < archive.MinutesPerDay; m++ {
		if c := a.Entity(entity).ObservationCount(m); c > most {
			most = c
		}
	}
	return most
}

func (p refPredictor) confidenceAt(entity string, at, days int) float64 {
	if days <= 0 {
		return 0
	}
	c := p.arch.Entity(entity).ObservationCount(at)
	if c >= days {
		return 1
	}
	return float64(c) / float64(days)
}

func (p refPredictor) predict(entity string, now, horizon, days int) (load, confidence float64, ok bool) {
	if horizon < 0 {
		return 0, 0, false
	}
	if p.arch.Entity(entity).Len() < p.minHistory {
		return 0, 0, false
	}
	base := p.arch.Entity(entity).ProfileAt(now + horizon)
	confidence = p.confidenceAt(entity, now+horizon, days)
	latest, have := p.arch.Latest(entity)
	if !have {
		return base, confidence, true
	}
	if c := p.confidenceAt(entity, latest.Minute, days); c < confidence {
		confidence = c
	}
	deviation := latest.CPU - p.arch.Entity(entity).ProfileAt(latest.Minute)
	halfLife := p.halfLife
	if halfLife <= 0 {
		halfLife = 60
	}
	w := math.Exp2(-float64(horizon) / halfLife)
	v := base + deviation*w
	if v < 0 {
		v = 0
	}
	return v, confidence, true
}

func (p refPredictor) predictPeak(entity string, now, horizon, days int) (peak, confidence float64, ok bool) {
	if horizon <= 0 {
		return 0, 0, false
	}
	confidence = 1
	for h := 1; h <= horizon; h++ {
		v, c, haveV := p.predict(entity, now, h, days)
		if !haveV {
			return 0, 0, false
		}
		ok = true
		if v > peak {
			peak = v
		}
		if c < confidence {
			confidence = c
		}
	}
	return peak, confidence, ok
}

// randomHistory records one entity's history in one of the shapes the
// confidence model exists for and returns the last recorded minute
// (-1: nothing recorded). Loads run from far below to far above the
// profile so deviations of both signs — and the clamp at 0 — occur.
func randomHistory(t *testing.T, rng *rand.Rand, a *archive.Archive, entity string) int {
	t.Helper()
	shape := rng.Intn(6)
	if shape == 0 {
		return -1 // unknown entity
	}
	days := 1 + rng.Intn(4)
	end := days*archive.MinutesPerDay - rng.Intn(archive.MinutesPerDay) // stop anywhere in the last day
	if shape == 1 {
		end = 1 + rng.Intn(archive.MinutesPerDay) // short: straddles the MinHistory boundary
	}
	start := rng.Intn(archive.MinutesPerDay / 2)
	last := -1
	for m := start; m < end; m++ {
		mod := m % archive.MinutesPerDay
		switch shape {
		case 2: // sparse: every k-th minute only
			if m%(2+start%5) != 0 {
				continue
			}
		case 3: // gappy: random outages
			if rng.Intn(4) == 0 {
				continue
			}
		case 4: // daylight-only traffic
			if mod < 7*60 || mod > 19*60 {
				continue
			}
		}
		cpu := pattern(mod) * (0.5 + rng.Float64())
		if err := a.Record(entity, archive.Sample{Minute: m, CPU: cpu}); err != nil {
			t.Fatal(err)
		}
		last = m
	}
	if last >= 0 && rng.Intn(2) == 0 {
		// Today breaks from the pattern: a spike, or a collapse deep
		// enough that profile + deviation goes negative and clamps.
		cpu := []float64{1.6, -2.5, 0}[rng.Intn(3)]
		last += 1 + rng.Intn(3)
		if err := a.Record(entity, archive.Sample{Minute: last, CPU: cpu}); err != nil {
			t.Fatal(err)
		}
	}
	return last
}

// TestPredictPeakMatchesReference is the differential test of the
// single-pass kernel: PredictPeakOf and Predict against
// the per-horizon-minute oracle above, bit for bit (math.Float64bits),
// over randomized sparse, gappy, daylight-only, short and absent
// histories; MinHistory on both sides of the boundary and at 0 (the
// no-latest-sample branch), horizons crossing midnight and reaching
// past a day, and DeviationHalfLife ≤ 0 and changed between calls on
// one Predictor.
func TestPredictPeakMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20060403))
	bits := math.Float64bits
	cases, clamped, noLatest, refused, midnight, profiled := 0, 0, 0, 0, 0, 0
	for hist := 0; hist < 260; hist++ {
		a := archive.New(1 + rng.Intn(3*archive.MinutesPerDay))
		const entity = "svc/x"
		last := randomHistory(t, rng, a, entity)
		if err := a.KeepProfiles(); err != nil {
			t.Fatal(err)
		}
		days := refDays(a, entity)
		if got := a.Entity(entity).DaysObserved(); got != days {
			t.Fatalf("history %d: DaysObserved = %d, full scan %d", hist, got, days)
		}
		p := New(a)
		for q := 0; q < 40; q++ {
			// The knobs change between calls on the same Predictor.
			p.DeviationHalfLife = []float64{60, 60, 45, 7.5, 1e-3, 1e6, 0, -3}[rng.Intn(8)]
			switch rng.Intn(4) {
			case 0:
				p.MinHistory = a.Entity(entity).Len() + rng.Intn(3) - 1 // the boundary: one under, at, one over
			case 1:
				p.MinHistory = 0
			default:
				p.MinHistory = archive.MinutesPerDay / 2
			}
			ref := refPredictor{arch: a, halfLife: p.DeviationHalfLife, minHistory: p.MinHistory}
			now := max(last, 0) + rng.Intn(5)
			if rng.Intn(3) == 0 {
				now = rng.Intn(5 * archive.MinutesPerDay) // anywhere, also before the history
			}
			horizon := rng.Intn(91) - 1 // -1 … 89
			if rng.Intn(20) == 0 {
				horizon = archive.MinutesPerDay + rng.Intn(100)
			}
			wantV, wantC, wantOK := ref.predictPeak(entity, now, horizon, days)
			if v, c, ok := p.PredictPeakOf(p.Entity(entity), now, horizon); bits(v) != bits(wantV) || bits(c) != bits(wantC) || ok != wantOK {
				t.Fatalf("history %d now=%d horizon=%d halfLife=%v minHistory=%d: PredictPeakOf = (%v, %v, %v), reference (%v, %v, %v)",
					hist, now, horizon, p.DeviationHalfLife, p.MinHistory, v, c, ok, wantV, wantC, wantOK)
			}
			wantV, wantC, wantOK = ref.predict(entity, now, horizon, days)
			if v, c, ok := p.Predict(entity, now, horizon); bits(v) != bits(wantV) || bits(c) != bits(wantC) || ok != wantOK {
				t.Fatalf("history %d now=%d horizon=%d halfLife=%v minHistory=%d: Predict = (%v, %v, %v), reference (%v, %v, %v)",
					hist, now, horizon, p.DeviationHalfLife, p.MinHistory, v, c, ok, wantV, wantC, wantOK)
			}
			cases++
			if days > 0 {
				profiled++
			}
			switch {
			case !wantOK:
				refused++
			case a.Entity(entity).Len() == 0:
				noLatest++
			case wantV == 0:
				clamped++
			}
			if horizon > 0 && now/archive.MinutesPerDay != (now+horizon)/archive.MinutesPerDay {
				midnight++
			}
		}
	}
	if cases < 10000 {
		t.Fatalf("only %d cases compared, want ≥ 10000", cases)
	}
	for name, n := range map[string]int{
		"clamped at 0": clamped, "no latest sample": noLatest,
		"refused": refused, "window across midnight": midnight,
		"over a day profile": profiled,
	} {
		if n < 50 {
			t.Errorf("only %d cases %s; the generator lost that branch", n, name)
		}
	}
}

// TestPredictPeakZeroAlloc guards the proactive scan's read path:
// resolving the entity and evaluating a 30-minute peak allocates
// nothing.
func TestPredictPeakZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by race instrumentation")
	}
	a := archive.New(2 * archive.MinutesPerDay)
	p := New(a)
	fill(t, a, "h", 2, 1)
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		v, c, ok := p.PredictPeakOf(p.Entity("h"), 2*archive.MinutesPerDay-1, 30)
		if !ok {
			t.Fatal("no peak prediction")
		}
		sink += v + c
	})
	if allocs != 0 {
		t.Fatalf("PredictPeakOf allocates %.1f times per call, want 0", allocs)
	}
	_ = sink
}

// BenchmarkPredictPeak30 measures one proactive-scan evaluation: the
// peak over a 30-minute horizon for one entity with two recorded days.
func BenchmarkPredictPeak30(b *testing.B) {
	a := archive.New(2 * archive.MinutesPerDay)
	for m := 0; m < 2*archive.MinutesPerDay; m++ {
		if err := a.Record("host/Blade1", archive.Sample{Minute: m, CPU: pattern(m % archive.MinutesPerDay)}); err != nil {
			b.Fatal(err)
		}
	}
	p := New(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := p.PredictPeakOf(p.Entity("host/Blade1"), 2*archive.MinutesPerDay-1, 30); !ok {
			b.Fatal("no peak prediction")
		}
	}
}
