package fuzzy

import "fmt"

// Term is a linguistic term (such as "low", "medium", "high") of a
// linguistic variable: its membership function, under the name the
// variable keys it by.
type Term struct {
	MF MembershipFunc
}

// Variable is a linguistic variable: a name, a universe of discourse
// [Min, Max] and a set of linguistic terms. Variables are used both as
// inputs (fuzzified measurements) and as outputs (action applicability,
// host scores).
type Variable struct {
	Name  string
	Min   float64
	Max   float64
	terms map[string]Term
}

// NewVariable creates a linguistic variable over the universe [min, max].
func NewVariable(name string, min, max float64) *Variable {
	if min >= max {
		panic(fmt.Sprintf("fuzzy: variable %q: empty universe [%g, %g]", name, min, max))
	}
	return &Variable{Name: name, Min: min, Max: max, terms: make(map[string]Term)}
}

// AddTerm adds a linguistic term to the variable and returns the variable
// for chaining. Adding a duplicate term name panics: rule bases reference
// terms by name and silent replacement would corrupt them.
func (v *Variable) AddTerm(name string, mf MembershipFunc) *Variable {
	if _, dup := v.terms[name]; dup {
		panic(fmt.Sprintf("fuzzy: variable %q: duplicate term %q", v.Name, name))
	}
	v.terms[name] = Term{MF: mf}
	return v
}

// Term returns the named term.
func (v *Variable) Term(name string) (Term, bool) {
	t, ok := v.terms[name]
	return t, ok
}

// Fuzzify maps the crisp value x onto all terms of the variable and
// returns the membership grades keyed by term name.
func (v *Variable) Fuzzify(x float64) map[string]float64 {
	x = v.clampU(x)
	out := make(map[string]float64, len(v.terms))
	for name, t := range v.terms {
		out[name] = clamp01(t.MF(x))
	}
	return out
}

func (v *Variable) clampU(x float64) float64 {
	switch {
	case x < v.Min:
		return v.Min
	case x > v.Max:
		return v.Max
	}
	return x
}

// StandardLoad returns the canonical three-term load variable used
// throughout AutoGlobe for CPU and memory loads on [0, 1], matching
// Figure 3 and the Section 3 worked example of the paper:
// μ_medium(0.6) = 0.5 and μ_high(0.6) = 0.2; μ_high(0.9) = 0.8 with
// μ_low(0.9) = μ_medium(0.9) = 0.
func StandardLoad(name string) *Variable {
	v := NewVariable(name, 0, 1)
	v.AddTerm("low", Trapezoid(0, 0, 0.2, 0.4))
	v.AddTerm("medium", Trapezoid(0.2, 0.4, 0.5, 0.7))
	v.AddTerm("high", Trapezoid(0.5, 1, 1, 1))
	return v
}

// Applicability returns the canonical output variable used for action
// applicabilities and host scores on [0, 1], matching Figure 5 of the
// paper: the term "applicable" is a linear ramp from 0 at x = 0 to 1 at
// x = 1, so that clipping it at height h and taking the leftmost maximum
// yields exactly h. "notApplicable" is the mirrored falling ramp.
func Applicability(name string) *Variable {
	v := NewVariable(name, 0, 1)
	v.AddTerm("notApplicable", Trapezoid(0, 0, 0, 1))
	v.AddTerm("applicable", Trapezoid(0, 1, 1, 1))
	return v
}

// Vocabulary is a named collection of linguistic variables shared by a
// rule base and the engine evaluating it.
type Vocabulary struct {
	vars map[string]*Variable
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary { return &Vocabulary{vars: make(map[string]*Variable)} }

// Add registers a variable. Registering a second variable with the same
// name panics, for the same reason AddTerm does.
func (vc *Vocabulary) Add(v *Variable) *Vocabulary {
	if _, dup := vc.vars[v.Name]; dup {
		panic(fmt.Sprintf("fuzzy: duplicate variable %q", v.Name))
	}
	vc.vars[v.Name] = v
	return vc
}

// Get returns the named variable.
func (vc *Vocabulary) Get(name string) (*Variable, bool) {
	v, ok := vc.vars[name]
	return v, ok
}
