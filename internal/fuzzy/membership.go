package fuzzy

import "fmt"

// MembershipFunc maps a crisp value to a membership grade in [0, 1].
type MembershipFunc func(x float64) float64

// Trapezoid returns the trapezoidal membership function with feet a and d
// and shoulders b and c:
//
//	       ______
//	      /      \
//	_____/        \_____
//	     a  b   c  d
//
// It requires a <= b <= c <= d. Degenerate edges (a == b or c == d) yield
// vertical flanks, so Trapezoid can express rectangles and, with b == c,
// triangles.
func Trapezoid(a, b, c, d float64) MembershipFunc {
	if !(a <= b && b <= c && c <= d) {
		panic(fmt.Sprintf("fuzzy: invalid trapezoid (%g, %g, %g, %g)", a, b, c, d))
	}
	return func(x float64) float64 {
		switch {
		case x < a || x > d:
			return 0
		case x < b:
			return (x - a) / (b - a) // a < b here, no division by zero
		case x <= c:
			return 1
		default: // c < x <= d, hence c < d
			return (d - x) / (d - c)
		}
	}
}

// Rect returns the crisp (rectangular) membership function that is 1 on
// [a, b] and 0 elsewhere. It is used to embed crisp conditions in rules.
func Rect(a, b float64) MembershipFunc { return Trapezoid(a, a, b, b) }

// clamp01 clamps v to the interval [0, 1]. Membership grades must stay in
// that interval; measurement noise may push raw values slightly outside.
func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}
