package fuzzy

import (
	"math"
	"math/rand"
	"testing"
)

// TestPropClosedFormMatchesUnion checks the closed-form kernel at the
// Set level, where nothing is a trapezoid: random collections of
// consequents with arbitrary non-monotone pre-sampled shapes — quantised
// so that plateaus, ties between rules and maxima reached by several
// consequents are the common case, with the odd NaN grade a user's
// membership function may produce — fired at truths from zero and the
// smallest float through weight-scaled and exact ones to beyond one and
// NaN. Height and leftmost maximum must equal, bit for bit, Height() and
// LeftMax of the union materialised from the same truths.
func TestPropClosedFormMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	levels := []float64{0, 0, 0.25, 0.5, 0.75, 1, math.NaN()}
	truths := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e-9,
		0.25, 0.5, 0.5 * 0.4, 0.75, 1, 1.5, -0.3, math.Inf(1), math.NaN()}
	for n := 0; n < 20_000; n++ {
		o := outputSlot{min: -2, max: 5}
		fired := make([]float64, 1+rng.Intn(5))
		for r := range fired {
			fired[r] = truths[rng.Intn(len(truths))]
			pre := NewSet(o.min, o.max)
			for i := 0; i < setSamples; {
				g := levels[rng.Intn(len(levels))]
				if rng.Intn(4) == 0 {
					g = rng.Float64()
				}
				for run := 1 + rng.Intn(40); run > 0 && i < setSamples; run-- {
					pre.grades[i] = g
					i++
				}
			}
			o.cons = append(o.cons, newConsequent(r, pre))
		}
		union := o.aggregate(nil, fired, MaxMin)
		if got, want := o.height(fired), union.Height(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d, fired %v: closed-form height %v, union's %v", n, fired, got, want)
		}
		if got, want := o.leftMax(fired), (LeftMax{}).Defuzzify(union); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d, fired %v: closed-form leftmost maximum %v, union's %v", n, fired, got, want)
		}
	}
}

// TestSampledEnginesRecyclePaperResults: the Result pool is one per
// program and shared by every engine, so a sampled engine gets Results a
// closed-form inference released without sets, and the paper's engine
// gets ones with stale sets. Neither may show in what they return.
func TestSampledEnginesRecyclePaperResults(t *testing.T) {
	rb := compileRuleBase(t)
	in := map[string]float64{"cpuLoad": 0.9, "memLoad": 0.2, "performanceIndex": 4}
	quiet := map[string]float64{"cpuLoad": 0, "memLoad": 0, "performanceIndex": 0}
	paper, centroid := NewEngine(nil), NewEngine(Centroid{})
	for round := 0; round < 3; round++ {
		for _, e := range []*Engine{paper, centroid} {
			hot, err := e.Infer(rb, in)
			if err != nil {
				t.Fatal(err)
			}
			hot.Release()
			got, err := e.Infer(rb, quiet)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.inferInterpreted(rb, quiet)
			if err != nil {
				t.Fatal(err)
			}
			for name, w := range want.Outputs {
				if got.Outputs[name] != w {
					t.Fatalf("round %d, %s: %s = %v on a recycled Result, interpreter %v",
						round, e.Defuzzifier().Name(), name, got.Outputs[name], w)
				}
				if gs, ws := got.OutputSet(name), want.OutputSet(name); gs.grades != ws.grades {
					t.Fatalf("round %d, %s: set of %s differs on a recycled Result", round, e.Defuzzifier().Name(), name)
				}
			}
			got.Release()
		}
	}
}
