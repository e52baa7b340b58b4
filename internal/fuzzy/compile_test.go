package fuzzy

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// compileVocab builds a vocabulary exercising hedges, NOT/OR nesting,
// several universes and multi-consequent rules.
func compileVocab() *Vocabulary {
	pi := NewVariable("performanceIndex", 0, 10)
	pi.AddTerm("low", Trapezoid(0, 0, 1, 3))
	pi.AddTerm("medium", Trapezoid(1, 3, 3, 5))
	pi.AddTerm("high", Trapezoid(3, 9, 10, 10))
	vc := NewVocabulary()
	vc.Add(StandardLoad("cpuLoad"))
	vc.Add(StandardLoad("memLoad"))
	vc.Add(pi)
	vc.Add(Applicability("scaleUp"))
	vc.Add(Applicability("scaleOut"))
	vc.Add(Applicability("move"))
	return vc
}

func compileRuleBase(t testing.TB) *RuleBase {
	t.Helper()
	rules := MustParse(`
		IF cpuLoad IS high AND (performanceIndex IS low OR performanceIndex IS medium) THEN scaleUp IS applicable
		IF cpuLoad IS high AND performanceIndex IS high THEN scaleOut IS applicable
		IF cpuLoad IS very high THEN scaleUp IS applicable AND move IS applicable
		IF NOT (cpuLoad IS low) AND memLoad IS somewhat high THEN move IS applicable
		IF memLoad IS NOT high AND cpuLoad IS medium THEN scaleOut IS notApplicable
	`)
	rb, err := NewRuleBase("compile-test", compileVocab(), rules)
	if err != nil {
		t.Fatal(err)
	}
	return rb
}

// TestCompiledMatchesInterpreted differential-tests the compiled fast
// path against the reference interpreter over a grid of inputs, all
// inference methods and all defuzzifiers. Results, output sets
// included, must be bit-identical.
func TestCompiledMatchesInterpreted(t *testing.T) {
	rb := compileRuleBase(t)
	engines := []*Engine{
		NewEngine(nil),
		NewEngine(nil).WithInference(MaxProduct),
		NewEngine(MeanOfMax{}),
		NewEngine(Centroid{}).WithInference(MaxProduct),
	}
	for ei, e := range engines {
		for cpu := -0.2; cpu <= 1.2; cpu += 0.1 {
			for mem := 0.0; mem <= 1.0; mem += 0.25 {
				for pi := 0.0; pi <= 10; pi += 2.5 {
					in := map[string]float64{
						"cpuLoad": cpu, "memLoad": mem, "performanceIndex": pi,
					}
					want, err := e.inferInterpreted(rb, in)
					if err != nil {
						t.Fatal(err)
					}
					got, err := e.InferVec(rb, bind(t, rb, in))
					if err != nil {
						t.Fatal(err)
					}
					for i := range want.Fired {
						if want.Fired[i] != got.Fired[i] {
							t.Fatalf("engine %d inputs %v: Fired[%d] = %v, interpreter %v",
								ei, in, i, got.Fired[i], want.Fired[i])
						}
					}
					if len(got.Outputs) != len(want.Outputs) {
						t.Fatalf("engine %d: %d outputs, interpreter %d", ei, len(got.Outputs), len(want.Outputs))
					}
					for o, name := range rb.OutputVars() {
						if got.Outputs[o] != want.Outputs[o] {
							t.Fatalf("engine %d inputs %v: %s = %v, interpreter %v",
								ei, in, name, got.Outputs[o], want.Outputs[o])
						}
						ws, gs := outputSet(rb, want, name), outputSet(rb, got, name)
						for i := 0; i < setSamples; i++ {
							if gs.grades[i] != ws.grades[i] {
								t.Fatalf("engine %d inputs %v: Sets[%s] sample %d differs", ei, in, name, i)
							}
						}
					}
					got.Release()
				}
			}
		}
	}
}

// TestCompiledInferAllocs is the allocation guardrail: steady-state
// compiled inference with Release must not allocate at all.
func TestCompiledInferAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	rb := compileRuleBase(t)
	e := NewEngine(nil)
	vec := bind(t, rb, map[string]float64{"cpuLoad": 0.85, "memLoad": 0.4, "performanceIndex": 4})
	// Warm the pools.
	for i := 0; i < 3; i++ {
		res, err := e.InferVec(rb, vec)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	allocs := testing.AllocsPerRun(200, func() {
		res, err := e.InferVec(rb, vec)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	})
	if allocs != 0 {
		t.Errorf("steady-state compiled inference allocates %.1f objects/op, want 0", allocs)
	}
}

// TestCompiledInferAllocsWithoutRelease documents the ceiling when the
// caller keeps every Result: only the Result, its Fired slice and its
// Outputs slice may be allocated, never sets or per-rule scratch.
func TestCompiledInferAllocsWithoutRelease(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	rb := compileRuleBase(t)
	e := NewEngine(nil)
	vec := bind(t, rb, map[string]float64{"cpuLoad": 0.85, "memLoad": 0.4, "performanceIndex": 4})
	if _, err := e.InferVec(rb, vec); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.InferVec(rb, vec); err != nil {
			t.Fatal(err)
		}
	})
	// Result struct + Fired + Outputs: the paper's engine materialises
	// no output set.
	if allocs > 3 {
		t.Errorf("compiled inference without Release allocates %.1f objects/op, want ≤ 3", allocs)
	}
}

// TestCompiledInferConcurrent hammers one shared engine and rule base
// from many goroutines (run under -race by scripts/check.sh) and checks
// every result against the sequential reference.
func TestCompiledInferConcurrent(t *testing.T) {
	rb := compileRuleBase(t)
	e := NewEngine(nil)
	vecs := make([][]float64, 64)
	want := make([][]float64, len(vecs))
	for i := range want {
		in := map[string]float64{
			"cpuLoad":          float64(i%11) / 10,
			"memLoad":          float64(i%7) / 6,
			"performanceIndex": float64(i % 10),
		}
		vecs[i] = bind(t, rb, in)
		res, err := e.inferInterpreted(rb, in)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Outputs
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				i := iter % len(want)
				res, err := e.InferVec(rb, vecs[i])
				if err != nil {
					errs <- err
					return
				}
				for o, w := range want[i] {
					if res.Outputs[o] != w {
						errs <- fmt.Errorf("case %d: Outputs[%d] = %v, want %v", i, o, res.Outputs[o], w)
						res.Release()
						return
					}
				}
				res.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCompiledMissingInput preserves the interpreter's error contract:
// the program's error for a slot without a measurement is the one the
// interpreter reports for the same missing variable, naming the rule
// base, the first referencing rule, and the variable.
func TestCompiledMissingInput(t *testing.T) {
	rb := compileRuleBase(t)
	_, err := NewEngine(nil).inferInterpreted(rb, map[string]float64{"cpuLoad": 0.5, "performanceIndex": 1})
	if err == nil {
		t.Fatal("interpreter: no error for missing input variable")
	}
	p := rb.Compile()
	slot := slices.Index(p.Inputs(), "memLoad")
	if got := p.MissingInputError(slot).Error(); got != err.Error() {
		t.Errorf("MissingInputError(%d) = %q, interpreter %q", slot, got, err)
	}
}

// TestResultRelease: releasing and re-inferring reuses buffers without
// corrupting values; double release is a no-op.
func TestResultRelease(t *testing.T) {
	rb := compileRuleBase(t)
	e := NewEngine(nil)
	in := map[string]float64{"cpuLoad": 0.9, "memLoad": 0.2, "performanceIndex": 4}
	r1, err := e.InferVec(rb, bind(t, rb, in))
	if err != nil {
		t.Fatal(err)
	}
	wantUp := output(rb, r1, "scaleUp")
	r1.Release()
	r1.Release() // double release must be harmless
	quiet, err := e.InferVec(rb, bind(t, rb, map[string]float64{"cpuLoad": 0, "memLoad": 0, "performanceIndex": 0}))
	if err != nil {
		t.Fatal(err)
	}
	// A recycled Result must not leak the previous call's grades.
	if got := output(rb, quiet, "scaleUp"); got >= wantUp {
		t.Errorf("recycled result leaked state: quiet scaleUp = %v (previous %v)", got, wantUp)
	}
	quiet.Release()
	r2, err := e.InferVec(rb, bind(t, rb, in))
	if err != nil {
		t.Fatal(err)
	}
	if output(rb, r2, "scaleUp") != wantUp {
		t.Errorf("after recycle: scaleUp = %v, want %v", output(rb, r2, "scaleUp"), wantUp)
	}
	r2.Release()
}

// TestInferResultsIndependent: results of two inferences must not share
// buffers unless the first was explicitly released.
func TestInferResultsIndependent(t *testing.T) {
	rb := compileRuleBase(t)
	e := NewEngine(nil)
	hot, err := e.InferVec(rb, bind(t, rb, map[string]float64{"cpuLoad": 0.9, "memLoad": 0.2, "performanceIndex": 4}))
	if err != nil {
		t.Fatal(err)
	}
	before := output(rb, hot, "scaleUp")
	if _, err := e.InferVec(rb, bind(t, rb, map[string]float64{"cpuLoad": 0, "memLoad": 0, "performanceIndex": 0})); err != nil {
		t.Fatal(err)
	}
	if output(rb, hot, "scaleUp") != before {
		t.Error("a second inference mutated an unreleased Result")
	}
	if outputSet(rb, hot, "scaleUp").Height() == 0 {
		t.Error("a second inference cleared an unreleased Result's sets")
	}
}

// TestExtendCompiles: extended rule bases get their own program and
// leave the base rule base's compiled program untouched.
func TestExtendCompiles(t *testing.T) {
	rb := compileRuleBase(t)
	e := NewEngine(nil)
	in := map[string]float64{"cpuLoad": 0.9, "memLoad": 0.2, "performanceIndex": 4}
	base, err := e.InferVec(rb, bind(t, rb, in))
	if err != nil {
		t.Fatal(err)
	}
	ext, err := rb.Extend("ext", MustParse(`IF cpuLoad IS high THEN scaleOut IS applicable`))
	if err != nil {
		t.Fatal(err)
	}
	extRes, err := e.InferVec(ext, bind(t, ext, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(extRes.Fired) != rb.Len()+1 {
		t.Fatalf("extended Fired has %d entries, want %d", len(extRes.Fired), rb.Len()+1)
	}
	if got := output(ext, extRes, "scaleUp"); got != output(rb, base, "scaleUp") {
		t.Errorf("extension changed unrelated output: %v vs %v", got, output(rb, base, "scaleUp"))
	}
	again, err := e.InferVec(rb, bind(t, rb, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Fired) != rb.Len() {
		t.Error("extending perturbed the base rule base's program")
	}
}

// TestCompiledHugeExpression exercises deep nesting so the evaluation
// stack sizing is covered.
func TestCompiledHugeExpression(t *testing.T) {
	vc := compileVocab()
	src := "cpuLoad IS high"
	for i := 0; i < 20; i++ {
		src = "(" + src + ") AND (memLoad IS NOT high OR cpuLoad IS very medium)"
	}
	rb, err := NewRuleBase("deep", vc, MustParse("IF "+src+" THEN scaleUp IS applicable"))
	if err != nil {
		t.Fatal(err)
	}
	in := map[string]float64{"cpuLoad": 0.9, "memLoad": 0.1}
	want, err := NewEngine(nil).inferInterpreted(rb, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewEngine(nil).InferVec(rb, bind(t, rb, in))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(output(rb, got, "scaleUp")-output(rb, want, "scaleUp")) != 0 {
		t.Errorf("deep expression: %v vs %v", output(rb, got, "scaleUp"), output(rb, want, "scaleUp"))
	}
}
