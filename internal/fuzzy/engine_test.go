package fuzzy

import (
	"math"
	"testing"
)

// paperVocab builds the vocabulary of the Section 3 worked example. The
// performanceIndex membership functions are chosen so that the paper's
// assumed grades hold at index i = 4: low = 0, medium = 0.6, high = 0.3.
func paperVocab(t *testing.T) *Vocabulary {
	t.Helper()
	pi := NewVariable("performanceIndex", 0, 10)
	pi.AddTerm("low", Trapezoid(0, 0, 1, 3))
	pi.AddTerm("medium", Trapezoid(1, 3, 3, 5)) // μ(4) = 0.5… adjusted below
	pi.AddTerm("high", Trapezoid(3, 9, 10, 10))
	vc := NewVocabulary()
	vc.Add(StandardLoad("cpuLoad"))
	vc.Add(pi)
	vc.Add(Applicability("scaleUp"))
	vc.Add(Applicability("scaleOut"))
	return vc
}

// TestSection3Inference reproduces the full worked example of Section 3:
// with μ_high(cpuLoad) = 0.8, μ_medium(perfIndex) = 0.6 and
// μ_high(perfIndex) = 0.3, rule 1 fires at min(0.8, max(0, 0.6)) = 0.6
// and rule 2 at min(0.8, 0.3) = 0.3; after max–min inference and
// leftmost-maximum defuzzification, scaleUp is applicable to degree 0.6
// and scaleOut to degree 0.3, so the controller favors scale-up.
func TestSection3Inference(t *testing.T) {
	// Build grades directly via custom membership functions so the test
	// asserts the *inference* arithmetic, not a particular calibration of
	// performanceIndex terms.
	pi := NewVariable("performanceIndex", 0, 10)
	pi.AddTerm("low", func(x float64) float64 { return 0 })
	pi.AddTerm("medium", func(x float64) float64 { return 0.6 })
	pi.AddTerm("high", func(x float64) float64 { return 0.3 })
	vc := NewVocabulary()
	vc.Add(StandardLoad("cpuLoad"))
	vc.Add(pi)
	vc.Add(Applicability("scaleUp"))
	vc.Add(Applicability("scaleOut"))

	rules := MustParse(`
		IF cpuLoad IS high AND (performanceIndex IS low OR performanceIndex IS medium) THEN scaleUp IS applicable
		IF cpuLoad IS high AND performanceIndex IS high THEN scaleOut IS applicable
	`)
	rb, err := NewRuleBase("section3", vc, rules)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(nil).Infer(rb, map[string]float64{
		"cpuLoad":          0.9,
		"performanceIndex": 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Fired[0], 0.6) {
		t.Errorf("rule 1 antecedent truth = %g, want 0.6", res.Fired[0])
	}
	if !approx(res.Fired[1], 0.3) {
		t.Errorf("rule 2 antecedent truth = %g, want 0.3", res.Fired[1])
	}
	if got := res.Outputs["scaleUp"]; math.Abs(got-0.6) > 0.01 {
		t.Errorf("scaleUp applicability = %g, want 0.6 (Figure 5)", got)
	}
	if got := res.Outputs["scaleOut"]; math.Abs(got-0.3) > 0.01 {
		t.Errorf("scaleOut applicability = %g, want 0.3", got)
	}
	if res.Outputs["scaleUp"] <= res.Outputs["scaleOut"] {
		t.Error("controller must favor scale-up over scale-out in this situation")
	}
}

func TestInferNoRuleFires(t *testing.T) {
	vc := paperVocab(t)
	rb := MustRuleBase("t", vc, MustParse(`IF cpuLoad IS high THEN scaleUp IS applicable`))
	res, err := NewEngine(nil).Infer(rb, map[string]float64{"cpuLoad": 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["scaleUp"] != 0 {
		t.Errorf("no rule fired but scaleUp = %g, want 0", res.Outputs["scaleUp"])
	}
	if !res.OutputSet("scaleUp").Empty() {
		t.Error("output set should be empty when no rule fires")
	}
}

func TestInferMissingInput(t *testing.T) {
	vc := paperVocab(t)
	rb := MustRuleBase("t", vc, MustParse(`IF cpuLoad IS high THEN scaleUp IS applicable`))
	if _, err := NewEngine(nil).Infer(rb, map[string]float64{}); err == nil {
		t.Fatal("expected error for missing input variable")
	}
}

func TestInferUnionOfRules(t *testing.T) {
	// Two rules assert the same output; the combined set is the fuzzy
	// union, so the crisp value reflects the stronger rule.
	vc := paperVocab(t)
	rb := MustRuleBase("t", vc, MustParse(`
		IF cpuLoad IS high THEN scaleUp IS applicable
		IF cpuLoad IS medium THEN scaleUp IS applicable
	`))
	res, err := NewEngine(nil).Infer(rb, map[string]float64{"cpuLoad": 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// At 0.9: high = 0.8, medium = 0. Union peaks at 0.8.
	if got := res.Outputs["scaleUp"]; math.Abs(got-0.8) > 0.01 {
		t.Errorf("scaleUp = %g, want 0.8", got)
	}
}

func TestInferRuleWeight(t *testing.T) {
	vc := paperVocab(t)
	r := MustParse(`IF cpuLoad IS high THEN scaleUp IS applicable`)[0]
	r.Weight = 0.5
	rb := MustRuleBase("t", vc, []Rule{r})
	res, err := NewEngine(nil).Infer(rb, map[string]float64{"cpuLoad": 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs["scaleUp"]; math.Abs(got-0.5) > 0.01 {
		t.Errorf("weighted rule: scaleUp = %g, want 0.5", got)
	}
}

func TestRuleBaseValidation(t *testing.T) {
	vc := paperVocab(t)
	cases := []string{
		`IF dskLoad IS high THEN scaleUp IS applicable`,     // unknown input var
		`IF cpuLoad IS enormous THEN scaleUp IS applicable`, // unknown term
		`IF cpuLoad IS high THEN fly IS applicable`,         // unknown output var
		`IF cpuLoad IS high THEN scaleUp IS perfect`,        // unknown output term
	}
	for _, src := range cases {
		if _, err := NewRuleBase("t", vc, MustParse(src)); err == nil {
			t.Errorf("rule %q validated, want error", src)
		}
	}
}

func TestRuleBaseExtend(t *testing.T) {
	vc := paperVocab(t)
	base := MustRuleBase("default", vc, MustParse(`IF cpuLoad IS high THEN scaleUp IS applicable`))
	ext, err := base.Extend("mission-critical", MustParse(`IF cpuLoad IS medium THEN scaleOut IS applicable`))
	if err != nil {
		t.Fatal(err)
	}
	if ext.Len() != 2 {
		t.Fatalf("extended rule base has %d rules, want 2", ext.Len())
	}
	if base.Len() != 1 {
		t.Fatalf("base rule base mutated: %d rules", base.Len())
	}
}

func TestRuleBaseOutputVars(t *testing.T) {
	vc := paperVocab(t)
	rb := MustRuleBase("t", vc, MustParse(`
		IF cpuLoad IS high THEN scaleUp IS applicable
		IF cpuLoad IS high THEN scaleOut IS applicable
	`))
	got := rb.OutputVars()
	if len(got) != 2 || got[0] != "scaleOut" || got[1] != "scaleUp" {
		t.Fatalf("OutputVars = %v", got)
	}
}

func TestEngineDefuzzifierChoice(t *testing.T) {
	vc := paperVocab(t)
	rb := MustRuleBase("t", vc, MustParse(`IF cpuLoad IS high THEN scaleUp IS applicable`))
	in := map[string]float64{"cpuLoad": 0.9} // clip height 0.8

	left, err := NewEngine(LeftMax{}).Infer(rb, in)
	if err != nil {
		t.Fatal(err)
	}
	cen, err := NewEngine(Centroid{}).Infer(rb, in)
	if err != nil {
		t.Fatal(err)
	}
	// Leftmost-max of the ramp clipped at 0.8 is exactly 0.8; the centroid
	// is pulled left by the ramp's mass, so the two methods must disagree
	// with centroid < leftmost-max.
	if math.Abs(left.Outputs["scaleUp"]-0.8) > 0.01 {
		t.Errorf("leftmost-max = %g, want 0.8", left.Outputs["scaleUp"])
	}
	if !(cen.Outputs["scaleUp"] < left.Outputs["scaleUp"]) {
		t.Errorf("centroid (%g) should be below leftmost-max (%g) for a clipped rising ramp",
			cen.Outputs["scaleUp"], left.Outputs["scaleUp"])
	}
}

// TestMaxProductInference: scaling preserves the ramp's shape, so the
// leftmost maximum of a scaled rising ramp sits at the universe's right
// edge (grade h·1 at x = 1), unlike clipping where it sits at x = h.
func TestMaxProductInference(t *testing.T) {
	vc := paperVocab(t)
	rb := MustRuleBase("t", vc, MustParse(`IF cpuLoad IS high THEN scaleUp IS applicable`))
	in := map[string]float64{"cpuLoad": 0.9} // truth 0.8

	clip, err := NewEngine(nil).Infer(rb, in)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := NewEngine(nil).WithInference(MaxProduct).Infer(rb, in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(clip.Outputs["scaleUp"]-0.8) > 0.01 {
		t.Errorf("max-min scaleUp = %g, want 0.8", clip.Outputs["scaleUp"])
	}
	if math.Abs(prod.Outputs["scaleUp"]-1.0) > 0.01 {
		t.Errorf("max-product scaleUp (leftmost max of scaled ramp) = %g, want 1.0", prod.Outputs["scaleUp"])
	}
	// The scaled set's height equals the truth.
	if h := prod.OutputSet("scaleUp").Height(); math.Abs(h-0.8) > 0.01 {
		t.Errorf("scaled set height = %g, want 0.8", h)
	}
	if MaxMin.String() != "max-min" || MaxProduct.String() != "max-product" {
		t.Error("Inference.String mismatch")
	}
}

func TestUnionScaledShape(t *testing.T) {
	s := NewSet(0, 1)
	s.UnionScaled(Triangle(0, 0.5, 1), 0.5)
	// The peak is scaled to 0.5 and stays at x = 0.5.
	if got := (MeanOfMax{}).Defuzzify(s); math.Abs(got-0.5) > 0.01 {
		t.Errorf("scaled triangle peak at %g, want 0.5", got)
	}
	if h := s.Height(); math.Abs(h-0.5) > 1e-9 {
		t.Errorf("scaled height = %g, want 0.5", h)
	}
	before := s.Height()
	s.UnionScaled(Triangle(0, 0.5, 1), 0)
	if s.Height() != before {
		t.Error("scaling by 0 changed the set")
	}
}

func TestInferIdempotent(t *testing.T) {
	// Inference must not mutate the rule base: two identical calls give
	// identical results.
	vc := paperVocab(t)
	rb := MustRuleBase("t", vc, MustParse(`IF cpuLoad IS high THEN scaleUp IS applicable`))
	e := NewEngine(nil)
	in := map[string]float64{"cpuLoad": 0.77}
	r1, err := e.Infer(rb, in)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Infer(rb, in)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Outputs["scaleUp"] != r2.Outputs["scaleUp"] {
		t.Errorf("inference not idempotent: %g vs %g", r1.Outputs["scaleUp"], r2.Outputs["scaleUp"])
	}
}
