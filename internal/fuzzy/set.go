package fuzzy

import "fmt"

// setSamples is the number of samples used to discretize output fuzzy
// sets over their universe. 201 samples give a resolution of 0.5 % on the
// [0, 1] applicability universe, far below any decision-relevant margin.
// It defines the output grid — the crisp values an inference can return —
// and is a loop bound only where a Set is materialised: the paper's
// configuration searches the grid, it does not walk it (compile.go).
const setSamples = 201

// Set is a discretized fuzzy set over the universe [Min, Max]. An output
// variable's set is the union of its consequents' pre-sampled sets, each
// clipped (UnionClippedSet) or scaled (UnionScaledSet) by its rule's
// truth, and a Defuzzifier extracts the crisp value. The paper's
// configuration derives that value without building the set (compile.go).
type Set struct {
	Min, Max float64
	grades   [setSamples]float64
}

// NewSet returns the empty fuzzy set (all grades zero) over [min, max].
func NewSet(min, max float64) *Set {
	if min >= max {
		panic(fmt.Sprintf("fuzzy: empty set universe [%g, %g]", min, max))
	}
	return &Set{Min: min, Max: max}
}

// x returns the universe value of sample index i.
func (s *Set) x(i int) float64 {
	return s.Min + (s.Max-s.Min)*float64(i)/float64(setSamples-1)
}

// Fill sets the grades by sampling the membership function mf.
func (s *Set) Fill(mf MembershipFunc) *Set {
	for i := range s.grades {
		s.grades[i] = clamp01(mf(s.x(i)))
	}
	return s
}

// UnionClippedSet merges a pre-sampled consequent set, clipped at height
// h, into the set by pointwise maximum — the max–min inference step:
// the consequent is clipped off at its antecedent's degree of truth, and
// all sets of one output variable combine by the fuzzy union. pre covers
// the same universe (compiled inference pre-samples every consequent
// term once at compile time), its grades clamped to [0, 1] as Fill
// guarantees.
func (s *Set) UnionClippedSet(pre *Set, h float64) {
	h = clamp01(h)
	if h == 0 {
		return
	}
	for i := range s.grades {
		g := pre.grades[i]
		if g > h {
			g = h
		}
		if g > s.grades[i] {
			s.grades[i] = g
		}
	}
}

// UnionScaledSet merges a pre-sampled consequent set scaled by h into
// the set — the max–product alternative, which keeps the consequent's
// shape instead of flattening its top.
func (s *Set) UnionScaledSet(pre *Set, h float64) {
	h = clamp01(h)
	if h == 0 {
		return
	}
	for i := range s.grades {
		g := pre.grades[i] * h
		if g > s.grades[i] {
			s.grades[i] = g
		}
	}
}

// Height returns the maximum membership grade of the set.
func (s *Set) Height() float64 {
	h := 0.0
	for _, g := range s.grades {
		if g > h {
			h = g
		}
	}
	return h
}

// A Defuzzifier converts a fuzzy set into a crisp value.
type Defuzzifier interface {
	// Defuzzify returns the crisp value for the set. For an empty set it
	// returns 0: in AutoGlobe an action with an empty output set is "not
	// applicable at all".
	Defuzzify(s *Set) float64
	// Name identifies the method, e.g. in benchmark output.
	Name() string
}

// LeftMax implements the paper's defuzzification method: the leftmost of
// all universe values at which the maximum truth value occurs.
type LeftMax struct{}

// Name implements Defuzzifier.
func (LeftMax) Name() string { return "leftmost-maximum" }

// Defuzzify implements Defuzzifier.
func (LeftMax) Defuzzify(s *Set) float64 {
	h := s.Height()
	if h == 0 {
		return 0
	}
	for i, g := range s.grades {
		if g == h {
			return s.x(i)
		}
	}
	return 0 // unreachable: Height found a maximal grade
}

// MeanOfMax defuzzifies to the mean of all values attaining the maximum
// grade. Provided as an alternative for ablation studies.
type MeanOfMax struct{}

// Name implements Defuzzifier.
func (MeanOfMax) Name() string { return "mean-of-maximum" }

// Defuzzify implements Defuzzifier.
func (MeanOfMax) Defuzzify(s *Set) float64 {
	h := s.Height()
	if h == 0 {
		return 0
	}
	sum, n := 0.0, 0
	for i, g := range s.grades {
		if g == h {
			sum += s.x(i)
			n++
		}
	}
	return sum / float64(n)
}

// Centroid defuzzifies to the center of gravity of the set. Provided as
// an alternative for ablation studies.
type Centroid struct{}

// Name implements Defuzzifier.
func (Centroid) Name() string { return "centroid" }

// Defuzzify implements Defuzzifier.
func (Centroid) Defuzzify(s *Set) float64 {
	num, den := 0.0, 0.0
	for i, g := range s.grades {
		num += s.x(i) * g
		den += g
	}
	if den == 0 {
		return 0
	}
	return num / den
}
