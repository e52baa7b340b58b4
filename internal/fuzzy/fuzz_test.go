package fuzzy

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzParse throws arbitrary source at the rule parser. The parser must
// never panic and, when it accepts input, the accepted rules must render
// back to text the parser accepts again with the same rendering — the
// invariant the versioned rule registry relies on to store sources.
//
// The seed corpus pins the multi-line grammar: newlines inside an open
// parenthesized group are whitespace (admin-wrapped rules), newlines at
// depth zero are rule separators, and comments may interrupt a group.
func FuzzParse(f *testing.F) {
	seeds := []string{
		// plain single-line rules
		"IF cpuLoad IS high THEN scaleOut IS applicable",
		"IF cpuLoad IS very high AND memLoad IS NOT low THEN move IS applicable",
		// separators: ';' and depth-zero newlines
		"IF a IS x THEN o IS t; IF b IS y THEN o IS t\nIF c IS z THEN o IS t",
		// the multi-line grammar: wraps inside an open group
		"IF instanceLoad IS high AND (performanceIndex IS low\n OR performanceIndex IS medium) THEN scaleUp IS applicable",
		"IF a IS x AND (performanceIndex\nIS\nlow OR b IS y) THEN out IS applicable",
		"IF a IS x AND (NOT\nb IS y\n) THEN out IS applicable",
		"IF (a IS x OR\n (b IS y\n AND c IS z\n)) THEN out IS applicable",
		// comment inside a group
		"IF cpuLoad IS high AND (performanceIndex IS low # note\n OR performanceIndex IS medium) THEN scaleUp IS applicable",
		// hostile shapes that must fail cleanly
		"IF (a IS x THEN o IS t",
		"IF a IS x) THEN o IS t",
		")))(((",
		"IF\n\n\nTHEN",
		"# only a comment",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		rules, err := Parse(src)
		if err != nil {
			return
		}
		for _, r := range rules {
			rendered := r.String()
			again, err := ParseRule(rendered)
			if err != nil {
				t.Fatalf("accepted rule failed to re-parse:\n  src: %q\n  rendered: %q\n  err: %v", src, rendered, err)
			}
			if again.String() != rendered {
				t.Fatalf("re-parse changed rendering:\n  first:  %q\n  second: %q", rendered, again.String())
			}
		}
	})
}

// differentialRuleBase draws a rule base from seed: one to six rules
// with randomExpr antecedents over compileVocab's inputs, one or two
// consequents each. Besides the applicability ramps the
// consequents assign an output whose terms are no trapezoids: a
// singleton on the first grid point, a wave, a staircase of plateaus,
// and a function that is NaN on part of its universe.
func differentialRuleBase(seed int64) *RuleBase {
	odd := NewVariable("odd", -1, 3)
	odd.AddTerm("spike", Singleton(-1))
	odd.AddTerm("wave", func(x float64) float64 { return 0.5 + 0.5*math.Sin(7*x) })
	odd.AddTerm("steps", func(x float64) float64 { return math.Floor(2*(x+1)) / 8 })
	odd.AddTerm("holes", func(x float64) float64 { return math.Sqrt(x) / 2 })
	vc := compileVocab()
	vc.Add(odd)
	consequents := []Assignment{
		{"scaleUp", "applicable"}, {"scaleUp", "notApplicable"}, {"scaleOut", "applicable"},
		{"move", "applicable"}, {"move", "notApplicable"},
		{"odd", "spike"}, {"odd", "wave"}, {"odd", "steps"}, {"odd", "holes"},
	}
	rng := rand.New(rand.NewSource(seed))
	vars := []string{"cpuLoad", "memLoad", "performanceIndex"}
	hedges := []Hedge{HedgeNone, HedgeVery, HedgeExtremely, HedgeSomewhat}
	rules := make([]Rule, 1+rng.Intn(6))
	for i := range rules {
		rules[i] = Rule{
			Antecedent:  randomExpr(rng, vars, hedges, 3),
			Consequents: []Assignment{consequents[rng.Intn(len(consequents))]},
		}
		if rng.Intn(3) == 0 {
			rules[i].Consequents = append(rules[i].Consequents, consequents[rng.Intn(len(consequents))])
		}
	}
	return MustRuleBase("differential", vc, rules)
}

// FuzzInferDifferential throws a random rule base and arbitrary
// measurements — NaN, infinities and values outside every universe
// included — at CheckDifferential: the closed-form leftmost maximum,
// LeftMax over the materialised union and the reference interpreter must
// agree in every bit. (A NaN measurement is judged by the first two
// only; see TestDefaultRuleBasesDifferential.)
func FuzzInferDifferential(f *testing.F) {
	f.Add(int64(1), 0.85, 0.4, 4.0)
	f.Add(int64(2), 0.7, 1.0, 3.0) // corners of the default terms
	f.Add(int64(3), math.Nextafter(0.5, 1), -0.0, 10.0)
	f.Add(int64(4), math.Inf(1), math.Inf(-1), 1e300)
	f.Add(int64(5), math.NaN(), 0.5, 5.0)
	f.Fuzz(func(t *testing.T, seed int64, cpu, mem, pi float64) {
		rb := differentialRuleBase(seed)
		in := map[string]float64{"cpuLoad": cpu, "memLoad": mem, "performanceIndex": pi}
		names := rb.Compile().Inputs()
		vals := make([]float64, len(names))
		interpret := true
		for i, n := range names {
			vals[i] = in[n]
			interpret = interpret && !math.IsNaN(vals[i])
		}
		if err := CheckDifferential(rb, vals, interpret); err != nil {
			t.Fatal(err)
		}
	})
}
