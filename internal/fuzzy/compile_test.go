package fuzzy

import (
	"fmt"
	"math"
	"strings"
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
// inference methods and all defuzzifiers. Results must be bit-identical.
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
					got, err := e.Infer(rb, in)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want.Fired {
						if want.Fired[i] != got.Fired[i] {
							t.Fatalf("engine %d inputs %v: Fired[%d] = %v, interpreter %v",
								ei, in, i, got.Fired[i], want.Fired[i])
						}
					}
					for name, w := range want.Outputs {
						if g, ok := got.Outputs[name]; !ok || g != w {
							t.Fatalf("engine %d inputs %v: Outputs[%s] = %v, interpreter %v",
								ei, in, name, g, w)
						}
					}
					if len(got.Outputs) != len(want.Outputs) {
						t.Fatalf("engine %d: output shape mismatch", ei)
					}
					for name := range want.Outputs {
						ws, gs := want.OutputSet(name), got.OutputSet(name)
						for i := 0; i < setSamples; i++ {
							if gs.Sample(i) != ws.Sample(i) {
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
	rb.Compile()
	e := NewEngine(nil)
	in := map[string]float64{"cpuLoad": 0.85, "memLoad": 0.4, "performanceIndex": 4}
	// Warm the pools.
	for i := 0; i < 3; i++ {
		res, err := e.Infer(rb, in)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	allocs := testing.AllocsPerRun(200, func() {
		res, err := e.Infer(rb, in)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	})
	if allocs != 0 {
		t.Errorf("steady-state compiled Infer allocates %.1f objects/op, want 0", allocs)
	}
}

// TestCompiledInferAllocsWithoutRelease documents the ceiling when the
// caller keeps every Result: only the Result, its Fired slice and its
// Outputs map may be allocated, never sets or per-rule scratch.
func TestCompiledInferAllocsWithoutRelease(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	rb := compileRuleBase(t)
	e := NewEngine(nil)
	in := map[string]float64{"cpuLoad": 0.85, "memLoad": 0.4, "performanceIndex": 4}
	if _, err := e.Infer(rb, in); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.Infer(rb, in); err != nil {
			t.Fatal(err)
		}
	})
	// Result struct + Fired + the Outputs map and its one group: the
	// paper's engine materialises no output set.
	if allocs > 4 {
		t.Errorf("compiled Infer without Release allocates %.1f objects/op, want ≤ 4", allocs)
	}
}

// TestCompiledInferConcurrent hammers one shared engine and rule base
// from many goroutines (run under -race by scripts/check.sh) and checks
// every result against the sequential reference.
func TestCompiledInferConcurrent(t *testing.T) {
	rb := compileRuleBase(t)
	e := NewEngine(nil)
	inputsFor := func(i int) map[string]float64 {
		return map[string]float64{
			"cpuLoad":          float64(i%11) / 10,
			"memLoad":          float64(i%7) / 6,
			"performanceIndex": float64(i % 10),
		}
	}
	want := make([]map[string]float64, 64)
	for i := range want {
		res, err := e.inferInterpreted(rb, inputsFor(i))
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
				res, err := e.Infer(rb, inputsFor(i))
				if err != nil {
					errs <- err
					return
				}
				for name, w := range want[i] {
					if res.Outputs[name] != w {
						errs <- fmt.Errorf("case %d: Outputs[%s] = %v, want %v", i, name, res.Outputs[name], w)
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
// the error names the rule base, the first referencing rule, and the
// missing variable.
func TestCompiledMissingInput(t *testing.T) {
	rb := compileRuleBase(t)
	_, err := NewEngine(nil).Infer(rb, map[string]float64{"cpuLoad": 0.5, "performanceIndex": 1})
	if err == nil {
		t.Fatal("expected error for missing input variable")
	}
	for _, frag := range []string{`"memLoad"`, `"compile-test"`, "no measurement"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %s", err, frag)
		}
	}
}

// TestResultRelease: releasing and re-inferring reuses buffers without
// corrupting values; double release is a no-op.
func TestResultRelease(t *testing.T) {
	rb := compileRuleBase(t)
	e := NewEngine(nil)
	in := map[string]float64{"cpuLoad": 0.9, "memLoad": 0.2, "performanceIndex": 4}
	r1, err := e.Infer(rb, in)
	if err != nil {
		t.Fatal(err)
	}
	wantUp := r1.Outputs["scaleUp"]
	r1.Release()
	r1.Release() // double release must be harmless
	quiet, err := e.Infer(rb, map[string]float64{"cpuLoad": 0, "memLoad": 0, "performanceIndex": 0})
	if err != nil {
		t.Fatal(err)
	}
	// A recycled Result must not leak the previous call's grades.
	if got := quiet.Outputs["scaleUp"]; got >= wantUp {
		t.Errorf("recycled result leaked state: quiet scaleUp = %v (previous %v)", got, wantUp)
	}
	quiet.Release()
	r2, err := e.Infer(rb, in)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Outputs["scaleUp"] != wantUp {
		t.Errorf("after recycle: scaleUp = %v, want %v", r2.Outputs["scaleUp"], wantUp)
	}
	r2.Release()
}

// TestInferResultsIndependent: results of two Infer calls must not share
// buffers unless the first was explicitly released.
func TestInferResultsIndependent(t *testing.T) {
	rb := compileRuleBase(t)
	e := NewEngine(nil)
	hot, err := e.Infer(rb, map[string]float64{"cpuLoad": 0.9, "memLoad": 0.2, "performanceIndex": 4})
	if err != nil {
		t.Fatal(err)
	}
	before := hot.Outputs["scaleUp"]
	if _, err := e.Infer(rb, map[string]float64{"cpuLoad": 0, "memLoad": 0, "performanceIndex": 0}); err != nil {
		t.Fatal(err)
	}
	if hot.Outputs["scaleUp"] != before {
		t.Error("second Infer mutated an unreleased Result")
	}
	if hot.OutputSet("scaleUp").Empty() {
		t.Error("second Infer cleared an unreleased Result's sets")
	}
}

// TestExtendCompiles: extended rule bases get their own program and
// leave the base rule base's compiled program untouched.
func TestExtendCompiles(t *testing.T) {
	rb := compileRuleBase(t)
	e := NewEngine(nil)
	in := map[string]float64{"cpuLoad": 0.9, "memLoad": 0.2, "performanceIndex": 4}
	base, err := e.Infer(rb, in)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := rb.Extend("ext", MustParse(`IF cpuLoad IS high THEN scaleOut IS applicable`))
	if err != nil {
		t.Fatal(err)
	}
	extRes, err := e.Infer(ext, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(extRes.Fired) != rb.Len()+1 {
		t.Fatalf("extended Fired has %d entries, want %d", len(extRes.Fired), rb.Len()+1)
	}
	if got := extRes.Outputs["scaleUp"]; got != base.Outputs["scaleUp"] {
		t.Errorf("extension changed unrelated output: %v vs %v", got, base.Outputs["scaleUp"])
	}
	again, err := e.Infer(rb, in)
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
	got, err := NewEngine(nil).Infer(rb, in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Outputs["scaleUp"]-want.Outputs["scaleUp"]) != 0 {
		t.Errorf("deep expression: %v vs %v", got.Outputs["scaleUp"], want.Outputs["scaleUp"])
	}
}
