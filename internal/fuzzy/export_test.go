package fuzzy

import (
	"fmt"
	"math"
	"sort"
)

// RaceEnabled lets the external differential test size itself.
const RaceEnabled = raceEnabled

// CheckDifferential runs one input vector (slot order of
// rb.Compile().Inputs()) through the paper's engine and reports the
// first bit in which the three ways to the crisp outputs disagree: the
// closed form InferVec runs, LeftMax over the set outputSet materialises
// from the same Fired (the sampled union every other engine runs), and
// — with interpret — the reference interpreter (interpret_test.go), whose
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
	for o, name := range rb.outVars {
		closed, set := got.Outputs[o], outputSet(rb, got, name)
		if sampled := (LeftMax{}).Defuzzify(set); math.Float64bits(closed) != math.Float64bits(sampled) {
			return fmt.Errorf("%s %v: %s = %v in closed form, %v over the materialised set (fired %v)",
				rb.Name, vals, name, closed, sampled, got.Fired)
		}
		if want == nil {
			continue
		}
		if w := want.Outputs[o]; math.Float64bits(closed) != math.Float64bits(w) {
			return fmt.Errorf("%s %v: %s = %v, interpreter %v", rb.Name, vals, name, closed, w)
		}
		ws := outputSet(rb, want, name)
		for i := range ws.grades {
			if math.Float64bits(set.grades[i]) != math.Float64bits(ws.grades[i]) {
				return fmt.Errorf("%s %v: set of %s, sample %d = %v, interpreter %v",
					rb.Name, vals, name, i, set.grades[i], ws.grades[i])
			}
		}
	}
	return nil
}

// Vocabulary returns the rule base's vocabulary.
func (rb *RuleBase) Vocabulary() *Vocabulary { return rb.vocab }

// outputSet returns r's combined fuzzy set of the named output variable
// before defuzzification, nil for a name no rule of rb assigns: the set
// a sampled inference defuzzified, or for the paper's configuration the
// union built afresh from r.Fired.
func outputSet(rb *RuleBase, r *Result, name string) *Set {
	i := sort.SearchStrings(rb.outVars, name)
	if i == len(rb.outVars) || rb.outVars[i] != name {
		return nil
	}
	if r.sets != nil {
		return r.sets[i]
	}
	return rb.program().outputs[i].aggregate(nil, r.Fired, MaxMin)
}
