// Package lib declares one exported name per rule of the surface check.
package lib

// Unused has no caller at all.
func Unused() {}

// Helper is called only inside this package.
func Helper() int { return helper() }

// unused has no caller but itself.
func unused(n int) int {
	if n > 0 {
		return unused(n - 1)
	}
	return 0
}

// helper is called by Helper, a non-test sibling.
func helper() int { return 1 }

// TestOnly is called only from a test.
func TestOnly() int { return Helper() }

// ForBench is called only from bench/.
func ForBench() {}

// ForExamples is called only from examples/.
func ForExamples() {}

// Shape is how the production caller reaches Square.Area.
type Shape interface{ Area() float64 }

// Square's Area is called only through Shape.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

// node is a sealed interface: nobody calls isNode, Square needs it.
type node interface{ isNode() }

func (Square) isNode() {}

// Fault's Error satisfies error, which the module does not declare.
type Fault struct{}

func (Fault) Error() string { return "fault" }

// Mode is an iota enum whose members other than ModeA nobody names.
type Mode int

const (
	ModeA Mode = iota
	ModeB
	ModeC
)

// Unused is a method no interface needs.
func (Mode) Unused() {}

// Wire is decoded from JSON, so nobody needs to write its fields.
type Wire struct {
	Name string `json:"name"`
}

// Pair is written only by an unkeyed literal.
type Pair struct{ A, B int }

// Opts is written by a keyed literal that leaves Unset out; Unread is
// assigned but never read.
type Opts struct{ Set, Unset, Unread int }
