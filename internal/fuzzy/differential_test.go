package fuzzy_test

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"autoglobe/internal/controller"
	"autoglobe/internal/fuzzy"
)

// sourcePrefix names the rule bases parsed from DefaultRuleSources, and
// hedgedPrefix their hedged variants (hedgedRuleBases).
const (
	sourcePrefix = "source:"
	hedgedPrefix = "hedged:"
)

// defaultRuleBases lists every rule base the controller ships: the
// compiled action and selection defaults, and DefaultRuleSources parsed
// afresh the way a rules directory or fuzzyc would.
func defaultRuleBases(t *testing.T) []*fuzzy.RuleBase {
	t.Helper()
	seen := map[*fuzzy.RuleBase]bool{}
	var out []*fuzzy.RuleBase
	for _, rb := range controller.DefaultActionRules() {
		out = append(out, rb)
	}
	for _, rb := range controller.DefaultSelectionRules() {
		if !seen[rb] { // placement serves scale-out and start
			seen[rb] = true
			out = append(out, rb)
		}
	}
	for name, src := range controller.DefaultRuleSources() {
		rb, err := fuzzy.NewRuleBase(sourcePrefix+name, controller.RuleVocabulary(name), fuzzy.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// hedgedRuleBases rewrites an action and a selection default so that
// every antecedent term carries a hedge — "high" becomes "very high",
// "low" "somewhat low", "medium" "extremely medium", with or without
// NOT — since no default rule base uses one: an engine that drops a
// hedge must disagree with the interpreter on these.
func hedgedRuleBases(t *testing.T) []*fuzzy.RuleBase {
	t.Helper()
	hedge := strings.NewReplacer(
		" IS high", " IS very high", " IS NOT high", " IS NOT very high",
		" IS low", " IS somewhat low", " IS NOT low", " IS NOT somewhat low",
		" IS medium", " IS extremely medium", " IS NOT medium", " IS NOT extremely medium",
	)
	srcs := controller.DefaultRuleSources()
	var out []*fuzzy.RuleBase
	for _, name := range []string{"serverOverloaded", "select/placement"} {
		var b strings.Builder
		for _, line := range strings.Split(srcs[name], "\n") {
			if cond, then, ok := strings.Cut(line, " THEN "); ok {
				line = hedge.Replace(cond) + " THEN " + then
			}
			b.WriteString(line + "\n")
		}
		if !strings.Contains(b.String(), " very ") || !strings.Contains(b.String(), " somewhat ") {
			t.Fatalf("%s: the rewrite left no hedge", name)
		}
		rb, err := fuzzy.NewRuleBase(hedgedPrefix+name, controller.RuleVocabulary(name), fuzzy.MustParse(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rb)
	}
	return out
}

// TestDefaultRuleBasesDifferential is the exactness proof by example of
// the closed-form leftmost maximum: over every default rule base and two
// hedged variants (no default uses a hedge), the
// closed form, LeftMax over the materialised union and the reference
// interpreter agree in every bit of every output and fired truth. The
// vectors are lattice points of each input's universe (where the default
// terms have their corners), lattice points one ulp off, out-of-universe
// and non-finite measurements, and seeded uniform draws. The interpreter
// is 20 times slower than the other two together, so it judges every
// fifth vector; the other two judge all of them. It does not judge a
// NaN measurement: a NaN grade makes its math.Min/Max antecedents NaN
// where the compiled comparisons keep an operand (so since PR 1, and not
// this test's subject), while a NaN truth is still this test's subject —
// the closed form must treat it as the sampled union does, as no clip.
func TestDefaultRuleBasesDifferential(t *testing.T) {
	perBase := 50_000
	if fuzzy.RaceEnabled || testing.Short() {
		perBase = 4_000
	}
	for bi, rb := range append(defaultRuleBases(t), hedgedRuleBases(t)...) {
		perBase := perBase
		if strings.HasPrefix(rb.Name, sourcePrefix) || strings.HasPrefix(rb.Name, hedgedPrefix) {
			perBase /= 5 // texts seen before, or rewritten: a fifth of the vectors
		}
		vocab := rb.Vocabulary()
		names := rb.Compile().Inputs()
		lo, hi := make([]float64, len(names)), make([]float64, len(names))
		for i, n := range names {
			v, _ := vocab.Get(n)
			lo[i], hi[i] = v.Min, v.Max
		}
		rng := rand.New(rand.NewSource(int64(bi) + 1))
		vals := make([]float64, len(names))
		for n := 0; n < perBase; n++ {
			interpret := n%5 == 0 // every kind in turn
			for i := range vals {
				span := hi[i] - lo[i]
				lattice := lo[i] + span*float64(rng.Intn(21))/20
				switch kind := n % 4; {
				case kind == 0:
					vals[i] = lattice
				case kind == 1 && rng.Intn(2) == 0:
					vals[i] = math.Nextafter(lattice, math.Inf(2*rng.Intn(2)-1))
				case kind == 1:
					vals[i] = lattice
				case kind == 2 && rng.Intn(4) == 0:
					odd := []float64{lo[i] - span, hi[i] + 1e-9, math.Inf(-1), math.Inf(1), math.NaN(), -0.0}
					vals[i] = odd[rng.Intn(len(odd))]
					interpret = interpret && !math.IsNaN(vals[i])
				default:
					vals[i] = lo[i] + span*rng.Float64()
				}
			}
			if err := fuzzy.CheckDifferential(rb, vals, interpret); err != nil {
				t.Fatal(err)
			}
		}
	}
}
