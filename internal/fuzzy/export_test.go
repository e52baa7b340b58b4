package fuzzy

import (
	"fmt"
	"math"
)

// RaceEnabled lets the external differential test size itself.
const RaceEnabled = raceEnabled

// CheckDifferential runs one input vector (slot order of
// rb.Compile().Inputs()) through the paper's engine and reports the
// first bit in which the three ways to the crisp outputs disagree: the
// closed form InferVec runs, LeftMax over the set Result.OutputSet
// materialises from the same Fired (the sampled union every other
// engine runs), and — with interpret — the reference interpreter, whose
// Fired and output sets must match sample for sample too. It is exported
// to the external test package because the default rule bases live in
// internal/controller, which imports this package.
func CheckDifferential(rb *RuleBase, vals []float64, interpret bool) error {
	e := NewEngine(nil)
	got, err := e.InferVec(rb, vals)
	if err != nil {
		return err
	}
	defer got.Release()
	var want *Result
	if interpret {
		in := make(map[string]float64, len(vals))
		for i, name := range rb.program().Inputs() {
			in[name] = vals[i]
		}
		if want, err = e.inferInterpreted(rb, in); err != nil {
			return err
		}
		for i := range want.Fired {
			if math.Float64bits(got.Fired[i]) != math.Float64bits(want.Fired[i]) {
				return fmt.Errorf("%s %v: Fired[%d] = %v, interpreter %v", rb.Name, vals, i, got.Fired[i], want.Fired[i])
			}
		}
	}
	for _, name := range rb.outVars {
		closed, set := got.Outputs[name], got.OutputSet(name)
		if sampled := (LeftMax{}).Defuzzify(set); math.Float64bits(closed) != math.Float64bits(sampled) {
			return fmt.Errorf("%s %v: %s = %v in closed form, %v over the materialised set (fired %v)",
				rb.Name, vals, name, closed, sampled, got.Fired)
		}
		if want == nil {
			continue
		}
		if w := want.Outputs[name]; math.Float64bits(closed) != math.Float64bits(w) {
			return fmt.Errorf("%s %v: %s = %v, interpreter %v", rb.Name, vals, name, closed, w)
		}
		ws := want.OutputSet(name)
		for i := range ws.grades {
			if math.Float64bits(set.grades[i]) != math.Float64bits(ws.grades[i]) {
				return fmt.Errorf("%s %v: set of %s, sample %d = %v, interpreter %v",
					rb.Name, vals, name, i, set.grades[i], ws.grades[i])
			}
		}
	}
	return nil
}
