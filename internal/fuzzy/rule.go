package fuzzy

import (
	"fmt"
	"math"
	"strings"
)

// Expr is a node of a rule-antecedent expression tree: IsExpr, NotExpr,
// AndExpr or OrExpr. Inference runs the postfix code the compiled
// program (compile.go) lowers it into.
type Expr interface {
	// String renders the expression in rule-language syntax.
	String() string
}

// Hedge is a linguistic modifier applied to a term's membership grade
// (Klir & Yuan: concentration and dilation). "very" squares the grade,
// "extremely" cubes it, "somewhat" takes the square root.
type Hedge string

// The supported hedges. The empty hedge is the identity.
const (
	HedgeNone      Hedge = ""
	HedgeVery      Hedge = "very"
	HedgeExtremely Hedge = "extremely"
	HedgeSomewhat  Hedge = "somewhat"
)

// Apply modifies a membership grade.
func (h Hedge) Apply(g float64) float64 {
	switch h {
	case HedgeVery:
		return g * g
	case HedgeExtremely:
		return g * g * g
	case HedgeSomewhat:
		return math.Sqrt(g)
	}
	return g
}

// IsExpr is the atomic condition "variable IS [hedge] term".
type IsExpr struct {
	Var   string
	Hedge Hedge
	Term  string
}

func (e IsExpr) String() string {
	if e.Hedge != HedgeNone {
		return e.Var + " IS " + string(e.Hedge) + " " + e.Term
	}
	return e.Var + " IS " + e.Term
}

// NotExpr is the fuzzy complement: truth = 1 − truth(child).
type NotExpr struct{ X Expr }

func (e NotExpr) String() string { return "NOT " + parenthesize(e.X) }

// AndExpr is a fuzzy conjunction, evaluated with the minimum function.
type AndExpr struct{ X, Y Expr }

func (e AndExpr) String() string { return parenthesize(e.X) + " AND " + parenthesize(e.Y) }

// OrExpr is a fuzzy disjunction, evaluated with the maximum function.
type OrExpr struct{ X, Y Expr }

func (e OrExpr) String() string { return parenthesize(e.X) + " OR " + parenthesize(e.Y) }

// parenthesize wraps composite sub-expressions so the rendered rule
// re-parses to the same tree.
func parenthesize(e Expr) string {
	switch e.(type) {
	case IsExpr:
		return e.String()
	default:
		return "(" + e.String() + ")"
	}
}

// Assignment is one clause of a rule consequent: "variable IS term".
type Assignment struct {
	Var  string
	Term string
}

func (a Assignment) String() string { return a.Var + " IS " + a.Term }

// Rule is a complete fuzzy rule: IF antecedent THEN consequents.
// A rule may assign several output terms ("THEN move IS applicable AND
// scaleUp IS somewhatApplicable").
type Rule struct {
	Antecedent  Expr
	Consequents []Assignment
}

func (r Rule) String() string {
	parts := make([]string, len(r.Consequents))
	for i, c := range r.Consequents {
		parts[i] = c.String()
	}
	return "IF " + r.Antecedent.String() + " THEN " + strings.Join(parts, " AND ")
}

// Validate checks that every variable and term referenced by the rule
// exists in the vocabulary.
func (r Rule) Validate(vocab *Vocabulary) error {
	var check func(e Expr) error
	check = func(e Expr) error {
		switch e := e.(type) {
		case IsExpr:
			v, ok := vocab.Get(e.Var)
			if !ok {
				return fmt.Errorf("fuzzy: rule %q: unknown variable %q", r, e.Var)
			}
			if _, ok := v.Term(e.Term); !ok {
				return fmt.Errorf("fuzzy: rule %q: variable %q has no term %q", r, e.Var, e.Term)
			}
			return nil
		case NotExpr:
			return check(e.X)
		case AndExpr:
			if err := check(e.X); err != nil {
				return err
			}
			return check(e.Y)
		case OrExpr:
			if err := check(e.X); err != nil {
				return err
			}
			return check(e.Y)
		default:
			return fmt.Errorf("fuzzy: rule %q: unknown expression node %T", r, e)
		}
	}
	if err := check(r.Antecedent); err != nil {
		return err
	}
	if len(r.Consequents) == 0 {
		return fmt.Errorf("fuzzy: rule %q: no consequent", r)
	}
	for _, c := range r.Consequents {
		v, ok := vocab.Get(c.Var)
		if !ok {
			return fmt.Errorf("fuzzy: rule %q: unknown output variable %q", r, c.Var)
		}
		if _, ok := v.Term(c.Term); !ok {
			return fmt.Errorf("fuzzy: rule %q: output variable %q has no term %q", r, c.Var, c.Term)
		}
	}
	return nil
}
