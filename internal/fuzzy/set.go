package fuzzy

import (
	"fmt"
	"math"
)

// setSamples is the number of samples used to discretize output fuzzy
// sets over their universe. 201 samples give a resolution of 0.5 % on the
// [0, 1] applicability universe, far below any decision-relevant margin.
// It defines the output grid — the crisp values an inference can return —
// and is a loop bound only where a Set is materialised: the paper's
// configuration searches the grid, it does not walk it (compile.go).
const setSamples = 201

// Set is a discretized fuzzy set over the universe [Min, Max]. Output
// variables of the inference engine accumulate clipped consequent sets
// into a Set via Union, and the final crisp value is extracted by a
// Defuzzifier.
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

// Sample returns the membership grade stored at sample index i.
func (s *Set) Sample(i int) float64 { return s.grades[i] }

// Fill sets the grades by sampling the membership function mf.
func (s *Set) Fill(mf MembershipFunc) *Set {
	for i := range s.grades {
		s.grades[i] = clamp01(mf(s.x(i)))
	}
	return s
}

// UnionClipped merges the membership function mf, clipped at height h,
// into the set using the fuzzy union (pointwise maximum). This is the
// max–min inference step: the consequent set mf is clipped off at the
// antecedent's degree of truth h, and all sets referring to the same
// output variable are combined by union.
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

// UnionScaled merges mf scaled (multiplied) by h into the set — the
// max–product inference alternative, which preserves the consequent
// set's shape instead of flattening its top.
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

// UnionClippedSet merges a pre-sampled consequent set, clipped at height
// h, into the set by pointwise maximum — the fast-path equivalent of
// UnionClipped for membership functions already discretized over the
// same universe (compiled inference pre-samples every consequent term
// once at compile time). pre's grades are assumed clamped to [0, 1], as
// Fill guarantees.
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
// the set — the fast-path equivalent of UnionScaled.
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

// Union merges another set (over the same universe) by pointwise max.
func (s *Set) Union(o *Set) error {
	if s.Min != o.Min || s.Max != o.Max {
		return fmt.Errorf("fuzzy: union of sets over different universes [%g,%g] vs [%g,%g]",
			s.Min, s.Max, o.Min, o.Max)
	}
	for i := range s.grades {
		if o.grades[i] > s.grades[i] {
			s.grades[i] = o.grades[i]
		}
	}
	return nil
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

// Empty reports whether the set has no support (all grades zero).
func (s *Set) Empty() bool { return s.Height() == 0 }

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
