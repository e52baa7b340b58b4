package fuzzy

import (
	"fmt"
	"math"
)

// This file holds the reference interpreter the compiled program is
// differential-tested against (CheckDifferential, compile_test.go,
// leftmax_test.go): it walks each antecedent tree per call, fuzzifies
// through a memo map and samples every consequent's membership function
// into the union, where the program runs postfix code over pre-sampled
// sets. Production has one engine, the program; this one lives here.

// inferInterpreted is one tree-walking inference of rb over inputs.
func (e *Engine) inferInterpreted(rb *RuleBase, inputs map[string]float64) (*Result, error) {
	// Fuzzification is memoized per (variable, term).
	type key struct{ v, t string }
	memo := make(map[key]float64)
	fuzz := func(v, t string) (float64, error) {
		k := key{v, t}
		if g, ok := memo[k]; ok {
			return g, nil
		}
		vr, ok := rb.vocab.Get(v)
		if !ok {
			return 0, fmt.Errorf("fuzzy: unknown variable %q", v)
		}
		x, ok := inputs[v]
		if !ok {
			return 0, fmt.Errorf("fuzzy: no measurement for input variable %q", v)
		}
		g, err := vr.Membership(t, x)
		if err != nil {
			return 0, err
		}
		memo[k] = g
		return g, nil
	}

	res := &Result{
		Outputs: make([]float64, len(rb.outVars)),
		Fired:   make([]float64, len(rb.rules)),
		sets:    make([]*Set, len(rb.outVars)),
	}
	sets := make(map[string]*Set)
	for i, name := range rb.outVars {
		v, _ := rb.vocab.Get(name)
		res.sets[i] = NewSet(v.Min, v.Max)
		sets[name] = res.sets[i]
	}

	for i, r := range rb.rules {
		truth, err := evalExpr(r.Antecedent, fuzz)
		if err != nil {
			return nil, fmt.Errorf("fuzzy: rule base %q, rule %d (%s): %w", rb.Name, i, r, err)
		}
		truth = clamp01(truth)
		res.Fired[i] = truth
		if truth == 0 {
			continue
		}
		for _, c := range r.Consequents {
			v, _ := rb.vocab.Get(c.Var)
			t, _ := v.Term(c.Term) // validated at construction
			if e.inference == MaxProduct {
				sets[c.Var].UnionScaled(t.MF, truth)
			} else {
				sets[c.Var].UnionClipped(t.MF, truth)
			}
		}
	}

	for i, set := range res.sets {
		res.Outputs[i] = e.defuzz.Defuzzify(set)
	}
	return res, nil
}

// evalExpr computes an antecedent's degree of truth: fuzz returns the
// membership grade of the current measurement of variable v in term t,
// AND is the minimum and OR the maximum.
func evalExpr(e Expr, fuzz func(v, t string) (float64, error)) (float64, error) {
	switch e := e.(type) {
	case IsExpr:
		g, err := fuzz(e.Var, e.Term)
		if err != nil {
			return 0, err
		}
		return e.Hedge.Apply(g), nil
	case NotExpr:
		v, err := evalExpr(e.X, fuzz)
		if err != nil {
			return 0, err
		}
		return 1 - v, nil
	case AndExpr:
		x, y, err := evalPair(e.X, e.Y, fuzz)
		return math.Min(x, y), err
	case OrExpr:
		x, y, err := evalPair(e.X, e.Y, fuzz)
		return math.Max(x, y), err
	}
	return 0, fmt.Errorf("fuzzy: unknown expression node %T", e)
}

// evalPair evaluates both operands of a binary node, X first.
func evalPair(x, y Expr, fuzz func(v, t string) (float64, error)) (float64, float64, error) {
	vx, err := evalExpr(x, fuzz)
	if err != nil {
		return 0, 0, err
	}
	vy, err := evalExpr(y, fuzz)
	if err != nil {
		return 0, 0, err
	}
	return vx, vy, nil
}

// Membership returns the membership grade of the crisp value x in the
// named term, x clamped to the universe first.
func (v *Variable) Membership(term string, x float64) (float64, error) {
	t, ok := v.terms[term]
	if !ok {
		return 0, fmt.Errorf("fuzzy: variable %q has no term %q", v.Name, term)
	}
	return clamp01(t.MF(v.clampU(x))), nil
}

// UnionClipped merges mf, clipped at height h, into the set by pointwise
// maximum: the max–min inference step, sampling mf at every call.
func (s *Set) UnionClipped(mf MembershipFunc, h float64) {
	h = clamp01(h)
	if h == 0 {
		return
	}
	for i := range s.grades {
		g := math.Min(clamp01(mf(s.x(i))), h)
		if g > s.grades[i] {
			s.grades[i] = g
		}
	}
}

// UnionScaled merges mf scaled by h into the set: the max–product step.
func (s *Set) UnionScaled(mf MembershipFunc, h float64) {
	h = clamp01(h)
	if h == 0 {
		return
	}
	for i := range s.grades {
		g := clamp01(mf(s.x(i))) * h
		if g > s.grades[i] {
			s.grades[i] = g
		}
	}
}
