package fuzzy

import (
	"math"
	"testing"
)

const eps = 1e-9

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-6 }

func TestTrapezoidShape(t *testing.T) {
	mf := Trapezoid(0.2, 0.4, 0.6, 0.8)
	cases := []struct{ x, want float64 }{
		{0.0, 0}, {0.2, 0}, {0.3, 0.5}, {0.4, 1},
		{0.5, 1}, {0.6, 1}, {0.7, 0.5}, {0.8, 0}, {1.0, 0},
	}
	for _, c := range cases {
		if got := mf(c.x); !approx(got, c.want) {
			t.Errorf("trapezoid(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestTrapezoidDegenerateEdges(t *testing.T) {
	// Vertical left flank (a == b): rectangle-like rise.
	mf := Trapezoid(0.5, 0.5, 0.7, 0.9)
	if got := mf(0.5); got != 1 {
		t.Errorf("vertical flank at a: mf(0.5) = %g, want 1", got)
	}
	if got := mf(0.499999); got != 0 {
		t.Errorf("just left of vertical flank: mf = %g, want 0", got)
	}
	// Vertical right flank (c == d).
	mf = Trapezoid(0.1, 0.3, 0.5, 0.5)
	if got := mf(0.5); got != 1 {
		t.Errorf("vertical flank at d: mf(0.5) = %g, want 1", got)
	}
	if got := mf(0.500001); got != 0 {
		t.Errorf("just right of vertical flank: mf = %g, want 0", got)
	}
}

func TestTrapezoidPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Trapezoid(0.5, 0.4, 0.6, 0.8) did not panic")
		}
	}()
	Trapezoid(0.5, 0.4, 0.6, 0.8)
}

func TestTriangle(t *testing.T) {
	mf := Triangle(0, 0.5, 1)
	if got := mf(0.5); got != 1 {
		t.Errorf("triangle peak = %g, want 1", got)
	}
	if got := mf(0.25); !approx(got, 0.5) {
		t.Errorf("triangle(0.25) = %g, want 0.5", got)
	}
}

func TestRectAndSingleton(t *testing.T) {
	r := Rect(0.25, 0.75)
	for _, c := range []struct{ x, want float64 }{{0.2, 0}, {0.25, 1}, {0.5, 1}, {0.75, 1}, {0.8, 0}} {
		if got := r(c.x); got != c.want {
			t.Errorf("rect(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	s := Singleton(0.5)
	if s(0.5) != 1 || s(0.50001) != 0 {
		t.Error("singleton must be 1 exactly at its point and 0 elsewhere")
	}
}

// TestFigure3 reproduces the paper's Figure 3: the linguistic variable
// cpuLoad with terms low/medium/high; a measured CPU load of l = 0.6 has
// membership 0.5 in medium and 0.2 in high.
func TestFigure3(t *testing.T) {
	v := StandardLoad("cpuLoad")
	got := v.Fuzzify(0.6)
	want := map[string]float64{"low": 0, "medium": 0.5, "high": 0.2}
	for term, w := range want {
		if !approx(got[term], w) {
			t.Errorf("Figure 3: μ_%s(0.6) = %g, want %g", term, got[term], w)
		}
	}
}

// TestSection3Grades reproduces the worked inference example in Section 3:
// a CPU load of l = 0.9 has grades low = 0, medium = 0, high = 0.8.
func TestSection3Grades(t *testing.T) {
	v := StandardLoad("cpuLoad")
	got := v.Fuzzify(0.9)
	want := map[string]float64{"low": 0, "medium": 0, "high": 0.8}
	for term, w := range want {
		if !approx(got[term], w) {
			t.Errorf("Section 3: μ_%s(0.9) = %g, want %g", term, got[term], w)
		}
	}
}

func TestVariableClampsUniverse(t *testing.T) {
	v := StandardLoad("cpuLoad")
	if got := v.Fuzzify(1.7)["high"]; got != 1 {
		t.Errorf("load 1.7 should clamp to 1.0 giving high = 1, got %g", got)
	}
	if got := v.Fuzzify(-0.5)["low"]; got != 1 {
		t.Errorf("load -0.5 should clamp to 0 giving low = 1, got %g", got)
	}
}

func TestVariableUnknownTerm(t *testing.T) {
	v := StandardLoad("cpuLoad")
	if _, err := v.Membership("enormous", 0.5); err == nil {
		t.Fatal("expected error for unknown term")
	}
}

func TestVariableDuplicateTermPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddTerm did not panic")
		}
	}()
	NewVariable("x", 0, 1).AddTerm("a", Rect(0, 1)).AddTerm("a", Rect(0, 1))
}

func TestVocabulary(t *testing.T) {
	vc := NewVocabulary()
	vc.Add(StandardLoad("cpuLoad")).Add(StandardLoad("memLoad"))
	if _, ok := vc.Get("cpuLoad"); !ok {
		t.Fatal("cpuLoad not found")
	}
	if _, ok := vc.Get("diskLoad"); ok {
		t.Fatal("unexpected variable diskLoad")
	}
}

func TestVocabularyDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	NewVocabulary().Add(StandardLoad("x")).Add(StandardLoad("x"))
}

// Triangle returns a triangular membership function peaking at b.
func Triangle(a, b, c float64) MembershipFunc { return Trapezoid(a, b, b, c) }

// Singleton returns a membership function that is 1 exactly at v.
func Singleton(v float64) MembershipFunc {
	return func(x float64) float64 {
		if x == v {
			return 1
		}
		return 0
	}
}
