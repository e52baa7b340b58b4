package fuzzy

import (
	"math"
	"testing"
)

// TestFigure5ClippedSet reproduces Figure 5: the output term "applicable"
// (a rising ramp on [0, 1]) clipped at height 0.6 defuzzifies to 0.6
// under the leftmost-maximum method.
func TestFigure5ClippedSet(t *testing.T) {
	v := Applicability("scaleUp")
	term, _ := v.Term("applicable")
	s := NewSet(0, 1)
	s.UnionClipped(term.MF, 0.6)
	if h := s.Height(); !approx(h, 0.6) {
		t.Errorf("clipped set height = %g, want 0.6", h)
	}
	got := LeftMax{}.Defuzzify(s)
	if math.Abs(got-0.6) > 0.01 {
		t.Errorf("Figure 5: leftmost-max defuzzification = %g, want 0.6", got)
	}
}

func TestSetUnionClippedAtZero(t *testing.T) {
	s := NewSet(0, 1)
	s.UnionClipped(Trapezoid(0, 1, 1, 1), 0)
	if s.Height() != 0 {
		t.Error("clipping at 0 must leave the set empty")
	}
}

func TestSetUnion(t *testing.T) {
	a := NewSet(0, 1).Fill(Trapezoid(0, 0, 0.2, 0.4))
	b := NewSet(0, 1).Fill(Trapezoid(0.6, 0.8, 1, 1))
	a.UnionClippedSet(b, 1)
	if a.Height() != 1 {
		t.Errorf("union height = %g, want 1", a.Height())
	}
	// Midpoint stays low: both sources are ~0 at 0.5.
	mid := a.grades[setSamples/2]
	if mid > 0.01 {
		t.Errorf("union at midpoint = %g, want ~0", mid)
	}
}

func TestDefuzzEmptySet(t *testing.T) {
	s := NewSet(0, 1)
	for _, d := range []Defuzzifier{LeftMax{}, MeanOfMax{}, Centroid{}} {
		if got := d.Defuzzify(s); got != 0 {
			t.Errorf("%s on empty set = %g, want 0", d.Name(), got)
		}
	}
}

func TestLeftMaxPicksLeftmost(t *testing.T) {
	// Two plateaus at the same height: leftmost-max picks the left one.
	s := NewSet(0, 1)
	s.UnionClipped(Rect(0.2, 0.3), 0.5)
	s.UnionClipped(Rect(0.7, 0.8), 0.5)
	got := LeftMax{}.Defuzzify(s)
	if math.Abs(got-0.2) > 0.01 {
		t.Errorf("leftmost-max = %g, want 0.2", got)
	}
}

func TestMeanOfMax(t *testing.T) {
	s := NewSet(0, 1)
	s.UnionClipped(Rect(0.4, 0.6), 1)
	got := MeanOfMax{}.Defuzzify(s)
	if math.Abs(got-0.5) > 0.01 {
		t.Errorf("mean-of-max = %g, want 0.5", got)
	}
}

func TestCentroidSymmetric(t *testing.T) {
	s := NewSet(0, 1)
	s.UnionClipped(Triangle(0.2, 0.5, 0.8), 1)
	got := Centroid{}.Defuzzify(s)
	if math.Abs(got-0.5) > 0.01 {
		t.Errorf("centroid of symmetric triangle = %g, want 0.5", got)
	}
}

func TestSetFillClamps(t *testing.T) {
	s := NewSet(0, 1).Fill(func(x float64) float64 { return 1.7 })
	if s.Height() != 1 {
		t.Errorf("Fill must clamp grades to 1, height = %g", s.Height())
	}
}

func TestNewSetPanicsOnEmptyUniverse(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSet(1, 1) did not panic")
		}
	}()
	NewSet(1, 1)
}
