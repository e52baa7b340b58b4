package fuzzy

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// clampUnit maps an arbitrary float64 into [0, 1] for property inputs.
func clampUnit(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0.5
	}
	v = math.Abs(v)
	return v - math.Floor(v)
}

// TestPropTrapezoidInUnitInterval: every trapezoid yields grades in [0, 1].
func TestPropTrapezoidInUnitInterval(t *testing.T) {
	f := func(raw [5]float64) bool {
		pts := []float64{clampUnit(raw[0]), clampUnit(raw[1]), clampUnit(raw[2]), clampUnit(raw[3])}
		sort.Float64s(pts)
		mf := Trapezoid(pts[0], pts[1], pts[2], pts[3])
		g := mf(clampUnit(raw[4]))
		return g >= 0 && g <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropTrapezoidPlateau: inside [b, c] the grade is exactly 1.
func TestPropTrapezoidPlateau(t *testing.T) {
	f := func(raw [5]float64) bool {
		pts := []float64{clampUnit(raw[0]), clampUnit(raw[1]), clampUnit(raw[2]), clampUnit(raw[3])}
		sort.Float64s(pts)
		mf := Trapezoid(pts[0], pts[1], pts[2], pts[3])
		x := pts[1] + clampUnit(raw[4])*(pts[2]-pts[1])
		return mf(x) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropFuzzifyGradesBounded: all grades of StandardLoad stay in [0, 1]
// for any input, including values far outside the universe.
func TestPropFuzzifyGradesBounded(t *testing.T) {
	v := StandardLoad("cpuLoad")
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		for _, g := range v.Fuzzify(x) {
			if g < 0 || g > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropUnionMonotone: adding a clipped set never lowers any grade.
func TestPropUnionMonotone(t *testing.T) {
	f := func(h1, h2, a, b float64) bool {
		lo, hi := clampUnit(a), clampUnit(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == hi {
			hi = lo + 0.1
			if hi > 1 {
				lo, hi = 0.4, 0.6
			}
		}
		s := NewSet(0, 1)
		s.UnionClipped(Trapezoid(0, 1, 1, 1), clampUnit(h1))
		before := make([]float64, setSamples)
		for i := 0; i < setSamples; i++ {
			before[i] = s.Sample(i)
		}
		s.UnionClipped(Rect(lo, hi), clampUnit(h2))
		for i := 0; i < setSamples; i++ {
			if s.Sample(i) < before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropLeftMaxRampIdentity: for the rising ramp "applicable", clipping
// at height h and defuzzifying with leftmost-max returns h (within grid
// resolution). This is the property that makes applicability scores in
// AutoGlobe directly interpretable as degrees of truth.
func TestPropLeftMaxRampIdentity(t *testing.T) {
	term, _ := Applicability("a").Term("applicable")
	f := func(raw float64) bool {
		h := clampUnit(raw)
		s := NewSet(0, 1)
		s.UnionClipped(term.MF, h)
		got := LeftMax{}.Defuzzify(s)
		return math.Abs(got-h) <= 1.0/(setSamples-1)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropDefuzzInUniverse: every defuzzifier returns a value inside the
// set's universe (or 0 for the empty set).
func TestPropDefuzzInUniverse(t *testing.T) {
	defuzzers := []Defuzzifier{LeftMax{}, MeanOfMax{}, Centroid{}}
	f := func(h, a, b float64) bool {
		s := NewSet(0, 1)
		lo, hi := clampUnit(a), clampUnit(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo < hi {
			s.UnionClipped(Rect(lo, hi), clampUnit(h))
		}
		for _, d := range defuzzers {
			v := d.Defuzzify(s)
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropInferenceMonotoneInLoad: with the single paper rule
// "IF cpuLoad IS high THEN scaleUp IS applicable", a higher CPU load
// never yields a lower scale-up applicability.
func TestPropInferenceMonotoneInLoad(t *testing.T) {
	vc := NewVocabulary()
	vc.Add(StandardLoad("cpuLoad"))
	vc.Add(Applicability("scaleUp"))
	rb := MustRuleBase("t", vc, MustParse(`IF cpuLoad IS high THEN scaleUp IS applicable`))
	e := NewEngine(nil)
	f := func(a, b float64) bool {
		x, y := clampUnit(a), clampUnit(b)
		if x > y {
			x, y = y, x
		}
		rx, err := e.Infer(rb, map[string]float64{"cpuLoad": x})
		if err != nil {
			return false
		}
		ry, err := e.Infer(rb, map[string]float64{"cpuLoad": y})
		if err != nil {
			return false
		}
		return rx.Outputs["scaleUp"] <= ry.Outputs["scaleUp"]+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randomExpr draws a random antecedent tree of at most the given depth
// over the variables and hedges given, with the terms low, medium and
// high — shared by the parser round-trip properties and
// FuzzInferDifferential.
func randomExpr(rng *rand.Rand, vars []string, hedges []Hedge, depth int) Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		return IsExpr{
			Var:   vars[rng.Intn(len(vars))],
			Hedge: hedges[rng.Intn(len(hedges))],
			Term:  []string{"low", "medium", "high"}[rng.Intn(3)],
		}
	}
	switch rng.Intn(3) {
	case 0:
		return AndExpr{randomExpr(rng, vars, hedges, depth-1), randomExpr(rng, vars, hedges, depth-1)}
	case 1:
		return OrExpr{randomExpr(rng, vars, hedges, depth-1), randomExpr(rng, vars, hedges, depth-1)}
	default:
		return NotExpr{randomExpr(rng, vars, hedges, depth-1)}
	}
}

// TestPropParserRoundTripRandomRules: randomly generated rule trees
// render to text that re-parses to the identical rendering.
func TestPropParserRoundTripRandomRules(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vars := []string{"cpuLoad", "memLoad", "performanceIndex", "instanceLoad"}
	hedges := []Hedge{HedgeNone, HedgeVery, HedgeExtremely, HedgeSomewhat}
	for i := 0; i < 200; i++ {
		r := Rule{Antecedent: randomExpr(rng, vars, hedges, 4), Consequents: []Assignment{{"scaleUp", "applicable"}}}
		src := r.String()
		got, err := ParseRule(src)
		if err != nil {
			t.Fatalf("generated rule failed to parse: %q: %v", src, err)
		}
		if got.String() != src {
			t.Fatalf("round trip mismatch:\n  want %s\n  got  %s", src, got.String())
		}
	}
}

// TestPropParserNewlineWrapInsideGroups: rendering a random rule and then
// replacing spaces inside parenthesized groups with newlines must parse
// to the identical rule — line breaks inside an open group are plain
// whitespace, wherever the admin wraps.
func TestPropParserNewlineWrapInsideGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vars := []string{"cpuLoad", "memLoad", "performanceIndex"}
	for i := 0; i < 200; i++ {
		r := Rule{Antecedent: randomExpr(rng, vars, []Hedge{HedgeNone}, 4), Consequents: []Assignment{{"scaleUp", "applicable"}}}
		src := r.String()
		// Wrap: inside parens, turn a random subset of spaces into newlines.
		wrapped := make([]byte, 0, len(src)+8)
		depth := 0
		for j := 0; j < len(src); j++ {
			c := src[j]
			switch c {
			case '(':
				depth++
			case ')':
				depth--
			case ' ':
				if depth > 0 && rng.Intn(2) == 0 {
					wrapped = append(wrapped, '\n')
					continue
				}
			}
			wrapped = append(wrapped, c)
		}
		got, err := ParseRule(string(wrapped))
		if err != nil {
			t.Fatalf("wrapped rule failed to parse:\n  src: %q\n  wrapped: %q\n  err: %v", src, wrapped, err)
		}
		if got.String() != src {
			t.Fatalf("newline wrap changed rule:\n  want %s\n  got  %s", src, got.String())
		}
	}
}
