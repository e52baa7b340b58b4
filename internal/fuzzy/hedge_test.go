package fuzzy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHedgeApply(t *testing.T) {
	cases := []struct {
		h    Hedge
		g    float64
		want float64
	}{
		{HedgeNone, 0.5, 0.5},
		{HedgeVery, 0.5, 0.25},
		{HedgeExtremely, 0.5, 0.125},
		{HedgeSomewhat, 0.25, 0.5},
		{HedgeVery, 1, 1},
		{HedgeVery, 0, 0},
	}
	for _, c := range cases {
		if got := c.h.Apply(c.g); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%q.Apply(%g) = %g, want %g", c.h, c.g, got, c.want)
		}
	}
}

func TestParseHedges(t *testing.T) {
	r, err := ParseRule(`IF cpuLoad IS very high THEN move IS applicable`)
	if err != nil {
		t.Fatal(err)
	}
	is, ok := r.Antecedent.(IsExpr)
	if !ok || is.Hedge != HedgeVery || is.Term != "high" {
		t.Fatalf("antecedent = %#v", r.Antecedent)
	}
	// Round trip.
	r2, err := ParseRule(r.String())
	if err != nil {
		t.Fatal(err)
	}
	if r2.String() != r.String() {
		t.Errorf("round trip: %q vs %q", r.String(), r2.String())
	}
}

func TestParseHedgeWithNot(t *testing.T) {
	r, err := ParseRule(`IF cpuLoad IS NOT somewhat high THEN move IS applicable`)
	if err != nil {
		t.Fatal(err)
	}
	n, ok := r.Antecedent.(NotExpr)
	if !ok {
		t.Fatalf("antecedent = %#v", r.Antecedent)
	}
	if is, ok := n.X.(IsExpr); !ok || is.Hedge != HedgeSomewhat {
		t.Fatalf("inner = %#v", n.X)
	}
}

// TestHedgeTermNameNotSwallowed: a term literally named "very" still
// parses when no further identifier follows.
func TestHedgeTermNameNotSwallowed(t *testing.T) {
	r, err := ParseRule(`IF cpuLoad IS very THEN move IS applicable`)
	if err != nil {
		t.Fatal(err)
	}
	is, ok := r.Antecedent.(IsExpr)
	if !ok || is.Hedge != HedgeNone || is.Term != "very" {
		t.Fatalf("antecedent = %#v", r.Antecedent)
	}
}

// TestHedgeInference: "very high" concentrates the grade, so a very-high
// rule fires more weakly than a plain high rule at the same load.
func TestHedgeInference(t *testing.T) {
	vc := NewVocabulary()
	vc.Add(StandardLoad("cpuLoad"))
	vc.Add(Applicability("move"))
	vc.Add(Applicability("scaleUp"))
	rb := MustRuleBase("t", vc, MustParse(`
		IF cpuLoad IS high THEN move IS applicable
		IF cpuLoad IS very high THEN scaleUp IS applicable
	`))
	res, err := NewEngine(nil).InferVec(rb, bind(t, rb, map[string]float64{"cpuLoad": 0.9}))
	if err != nil {
		t.Fatal(err)
	}
	// μ_high(0.9) = 0.8; very high = 0.64.
	if math.Abs(output(rb, res, "move")-0.8) > 0.01 {
		t.Errorf("move = %g, want 0.8", output(rb, res, "move"))
	}
	if math.Abs(output(rb, res, "scaleUp")-0.64) > 0.01 {
		t.Errorf("scaleUp = %g, want 0.64", output(rb, res, "scaleUp"))
	}
}

// TestPropHedgeOrdering: for any grade, extremely ≤ very ≤ plain ≤
// somewhat — concentration never raises a grade, dilation never lowers
// it.
func TestPropHedgeOrdering(t *testing.T) {
	f := func(raw float64) bool {
		g := clampUnit(raw)
		return HedgeExtremely.Apply(g) <= HedgeVery.Apply(g)+1e-12 &&
			HedgeVery.Apply(g) <= g+1e-12 &&
			g <= HedgeSomewhat.Apply(g)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
