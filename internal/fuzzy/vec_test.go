package fuzzy

import (
	"slices"
	"strings"
	"testing"
)

// bind lays named measurements out in the slots of rb's compiled
// program, as a caller outside the package binds them once per rule
// base, and fails the test for a slot without one.
func bind(t testing.TB, rb *RuleBase, in map[string]float64) []float64 {
	t.Helper()
	p := rb.Compile()
	vec := make([]float64, p.NumInputs())
	for i, name := range p.Inputs() {
		x, ok := in[name]
		if !ok {
			t.Fatal(p.MissingInputError(i))
		}
		vec[i] = x
	}
	return vec
}

// output reads the named output variable's crisp value from r: the slot
// of the name in rb.OutputVars.
func output(rb *RuleBase, r *Result, name string) float64 {
	return r.Outputs[slices.Index(rb.outVars, name)]
}

// TestInferVecMatchesInfer differential-tests the vector entry point
// against map-keyed inference (the reference interpreter, which looks
// each variable up by name) over a grid of inputs, inference methods and
// defuzzifiers. Every point is bound into one recycled vector in
// Inputs() order, as a hot path binds it, so a slot left over from the
// previous point would show. Results must be bit-identical.
func TestInferVecMatchesInfer(t *testing.T) {
	rb := compileRuleBase(t)
	names := rb.Compile().Inputs()
	engines := []*Engine{
		NewEngine(nil),
		NewEngine(nil).WithInference(MaxProduct),
		NewEngine(MeanOfMax{}),
		NewEngine(Centroid{}).WithInference(MaxProduct),
	}
	vec := make([]float64, len(names))
	for ei, e := range engines {
		for cpu := -0.2; cpu <= 1.2; cpu += 0.1 {
			for mem := 0.0; mem <= 1.0; mem += 0.25 {
				for pi := 0.0; pi <= 10; pi += 2.5 {
					in := map[string]float64{
						"cpuLoad": cpu, "memLoad": mem, "performanceIndex": pi,
					}
					for i, n := range names {
						vec[i] = in[n]
					}
					want, err := e.inferInterpreted(rb, in)
					if err != nil {
						t.Fatal(err)
					}
					got, err := e.InferVec(rb, vec)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want.Fired {
						if want.Fired[i] != got.Fired[i] {
							t.Fatalf("engine %d inputs %v: Fired[%d] = %v, map-keyed %v",
								ei, in, i, got.Fired[i], want.Fired[i])
						}
					}
					if len(got.Outputs) != len(want.Outputs) {
						t.Fatalf("engine %d: %d outputs, map-keyed %d", ei, len(got.Outputs), len(want.Outputs))
					}
					for o, name := range rb.OutputVars() {
						if got.Outputs[o] != want.Outputs[o] {
							t.Fatalf("engine %d inputs %v: %s = %v, map-keyed %v",
								ei, in, name, got.Outputs[o], want.Outputs[o])
						}
					}
					got.Release()
				}
			}
		}
	}
}

// TestProgramInputs pins the slot contract: Inputs lists every distinct
// input variable in first-reference order, NumInputs agrees, and the
// returned slice is a copy.
func TestProgramInputs(t *testing.T) {
	rb := compileRuleBase(t)
	p := rb.Compile()
	names := p.Inputs()
	if len(names) != p.NumInputs() {
		t.Fatalf("Inputs() has %d entries, NumInputs() = %d", len(names), p.NumInputs())
	}
	// compileRuleBase references cpuLoad first, then performanceIndex,
	// then memLoad (first-reference order over the rule list).
	want := []string{"cpuLoad", "performanceIndex", "memLoad"}
	if len(names) != len(want) {
		t.Fatalf("Inputs() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Inputs() = %v, want %v", names, want)
		}
	}
	names[0] = "mutated"
	if p.Inputs()[0] != "cpuLoad" {
		t.Fatal("Inputs() must return a copy")
	}
}

// TestMissingInputErrorText pins the error a caller reports for a slot
// it has no measurement for: it names the rule base, the first rule
// reading the variable, and the variable.
func TestMissingInputErrorText(t *testing.T) {
	p := compileRuleBase(t).Compile()
	for i, want := range []string{
		`fuzzy: rule base "compile-test", rule 0 (IF cpuLoad IS high AND (performanceIndex IS low OR performanceIndex IS medium) THEN scaleUp IS applicable): fuzzy: no measurement for input variable "cpuLoad"`,
		`fuzzy: rule base "compile-test", rule 0 (IF cpuLoad IS high AND (performanceIndex IS low OR performanceIndex IS medium) THEN scaleUp IS applicable): fuzzy: no measurement for input variable "performanceIndex"`,
		`fuzzy: rule base "compile-test", rule 3 (IF (NOT cpuLoad IS low) AND memLoad IS somewhat high THEN move IS applicable): fuzzy: no measurement for input variable "memLoad"`,
	} {
		if got := p.MissingInputError(i).Error(); got != want {
			t.Errorf("MissingInputError(%d) = %q\nwant %q", i, got, want)
		}
	}
}

// TestInferVecLengthMismatch rejects vectors of the wrong arity instead
// of silently misbinding slots.
func TestInferVecLengthMismatch(t *testing.T) {
	rb := compileRuleBase(t)
	e := NewEngine(nil)
	_, err := e.InferVec(rb, make([]float64, rb.Compile().NumInputs()+1))
	if err == nil || !strings.Contains(err.Error(), "input vector") {
		t.Fatalf("want arity error, got %v", err)
	}
}

// TestInferVecAllocs is the allocation guardrail for the vector path:
// steady-state inference over a recycled vector with Release must not
// allocate at all.
func TestInferVecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	rb := compileRuleBase(t)
	p := rb.Compile()
	e := NewEngine(nil)
	vec := make([]float64, p.NumInputs())
	for i := range vec {
		vec[i] = 0.7
	}
	for i := 0; i < 100; i++ { // warm the pools
		res, err := e.InferVec(rb, vec)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		res, err := e.InferVec(rb, vec)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	})
	if allocs != 0 {
		t.Fatalf("steady-state InferVec allocates %v times per run, want 0", allocs)
	}
}
