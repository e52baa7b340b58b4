package fuzzy

import (
	"fmt"
	"strings"
	"testing"
)

func TestParsePaperRule1(t *testing.T) {
	// First sample rule from Section 3 of the paper.
	r, err := ParseRule(`IF cpuLoad IS high AND
		(performanceIndex IS low OR performanceIndex IS medium)
		THEN scaleUp IS applicable`)
	if err != nil {
		t.Fatal(err)
	}
	and, ok := r.Antecedent.(AndExpr)
	if !ok {
		t.Fatalf("antecedent is %T, want AndExpr", r.Antecedent)
	}
	if is, ok := and.X.(IsExpr); !ok || is.Var != "cpuLoad" || is.Term != "high" {
		t.Errorf("left of AND = %v", and.X)
	}
	or, ok := and.Y.(OrExpr)
	if !ok {
		t.Fatalf("right of AND is %T, want OrExpr", and.Y)
	}
	if is, ok := or.X.(IsExpr); !ok || is.Var != "performanceIndex" || is.Term != "low" {
		t.Errorf("left of OR = %v", or.X)
	}
	if len(r.Consequents) != 1 || r.Consequents[0] != (Assignment{"scaleUp", "applicable"}) {
		t.Errorf("consequents = %v", r.Consequents)
	}
}

func TestParsePaperRule2(t *testing.T) {
	r, err := ParseRule(`IF cpuLoad IS high AND performanceIndex IS high THEN scaleOut IS applicable`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Antecedent.(AndExpr); !ok {
		t.Fatalf("antecedent is %T, want AndExpr", r.Antecedent)
	}
	if r.Consequents[0].Var != "scaleOut" {
		t.Errorf("consequent var = %q", r.Consequents[0].Var)
	}
}

func TestParseMultipleRules(t *testing.T) {
	src := `
		# trigger: serverOverloaded
		IF cpuLoad IS high THEN move IS applicable
		IF memLoad IS high THEN scaleOut IS applicable; IF cpuLoad IS low THEN stop IS applicable
	`
	rules, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(rules))
	}
}

func TestParseOperatorPrecedence(t *testing.T) {
	// AND binds tighter than OR: a OR b AND c == a OR (b AND c).
	r, err := ParseRule(`IF a IS x OR b IS y AND c IS z THEN out IS applicable`)
	if err != nil {
		t.Fatal(err)
	}
	or, ok := r.Antecedent.(OrExpr)
	if !ok {
		t.Fatalf("top node is %T, want OrExpr", r.Antecedent)
	}
	if _, ok := or.Y.(AndExpr); !ok {
		t.Fatalf("right of OR is %T, want AndExpr", or.Y)
	}
}

func TestParseNot(t *testing.T) {
	r, err := ParseRule(`IF NOT cpuLoad IS high THEN stop IS applicable`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Antecedent.(NotExpr); !ok {
		t.Fatalf("antecedent is %T, want NotExpr", r.Antecedent)
	}
}

func TestParseIsNotSugar(t *testing.T) {
	r, err := ParseRule(`IF cpuLoad IS NOT high THEN stop IS applicable`)
	if err != nil {
		t.Fatal(err)
	}
	n, ok := r.Antecedent.(NotExpr)
	if !ok {
		t.Fatalf("antecedent is %T, want NotExpr", r.Antecedent)
	}
	if is, ok := n.X.(IsExpr); !ok || is.Term != "high" {
		t.Errorf("negated condition = %v", n.X)
	}
}

func TestParseMultipleConsequents(t *testing.T) {
	r, err := ParseRule(`IF cpuLoad IS high THEN move IS applicable AND scaleUp IS applicable`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Consequents) != 2 {
		t.Fatalf("consequents = %v, want 2", r.Consequents)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := ParseRule(`if cpuLoad is high then move is applicable`); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`cpuLoad IS high THEN move IS applicable`,     // missing IF
		`IF cpuLoad IS high`,                          // missing THEN
		`IF cpuLoad high THEN move IS applicable`,     // missing IS
		`IF (cpuLoad IS high THEN move IS applicable`, // unbalanced paren
		`IF cpuLoad IS high THEN move`,                // incomplete consequent
		`IF cpuLoad IS high THEN move IS applicable extra`,
		`IF cpuLoad IS 0.7 THEN move IS applicable`, // number is not a term
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseRuleRejectsMultiple(t *testing.T) {
	if _, err := ParseRule("IF a IS b THEN c IS d\nIF a IS b THEN c IS d"); err == nil {
		t.Fatal("ParseRule accepted two rules")
	}
}

func TestRuleStringRoundTrip(t *testing.T) {
	srcs := []string{
		`IF cpuLoad IS high AND (performanceIndex IS low OR performanceIndex IS medium) THEN scaleUp IS applicable`,
		`IF NOT (a IS x AND b IS y) THEN out IS applicable`,
		`IF a IS x OR b IS y AND c IS z THEN out IS applicable AND out2 IS applicable`,
	}
	for _, src := range srcs {
		r1, err := ParseRule(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		r2, err := ParseRule(r1.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", r1.String(), err)
		}
		if r1.String() != r2.String() {
			t.Errorf("round trip changed rule:\n  first:  %s\n  second: %s", r1, r2)
		}
	}
}

func TestParseComments(t *testing.T) {
	rules, err := Parse(`
		# a comment
		IF cpuLoad IS high THEN move IS applicable # trailing comment
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 {
		t.Fatalf("parsed %d rules, want 1", len(rules))
	}
}

func TestParseNewlinesInsideGroup(t *testing.T) {
	// Inside an open parenthesized group a newline is plain whitespace,
	// never a rule separator — an admin-authored rule base may wrap a
	// grouped antecedent at any point, including mid-condition.
	srcs := []string{
		// the ISSUE's motivating example: wrap before OR
		"IF instanceLoad IS high AND (performanceIndex IS low\n OR performanceIndex IS medium) THEN scaleUp IS applicable",
		// wrap between variable and IS
		"IF a IS x AND (performanceIndex\nIS low OR b IS y) THEN out IS applicable",
		// wrap between IS and the term
		"IF a IS x AND (performanceIndex IS\nlow OR b IS y) THEN out IS applicable",
		// wrap after NOT
		"IF a IS x AND (NOT\nperformanceIndex IS low) THEN out IS applicable",
		// wrap immediately before the closing paren
		"IF a IS x AND (b IS y\n) THEN out IS applicable",
		// nested groups, wraps at several depths
		"IF (a IS x OR\n (b IS y\n AND c IS z\n)) THEN out IS applicable",
	}
	for _, src := range srcs {
		r, err := ParseRule(src)
		if err != nil {
			t.Errorf("ParseRule(%q): %v", src, err)
			continue
		}
		if len(r.Consequents) == 0 {
			t.Errorf("ParseRule(%q): no consequents", src)
		}
	}
}

func TestParseCommentInsideGroup(t *testing.T) {
	rules, err := Parse(`
		IF cpuLoad IS high AND (performanceIndex IS low # annotated mid-group
			OR performanceIndex IS medium) THEN scaleUp IS applicable
		IF memLoad IS high THEN scaleOut IS applicable
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("parsed %d rules, want 2", len(rules))
	}
	or, ok := rules[0].Antecedent.(AndExpr)
	if !ok {
		t.Fatalf("antecedent is %T, want AndExpr", rules[0].Antecedent)
	}
	if _, ok := or.Y.(OrExpr); !ok {
		t.Fatalf("right of AND is %T, want OrExpr (comment must not split the group)", or.Y)
	}
}

func TestParseUnbalancedCloseParen(t *testing.T) {
	// A stray ')' at depth zero must stay a parse error, not corrupt
	// the lexer's depth tracking for the rest of the input.
	if _, err := Parse("IF a IS x) THEN out IS applicable"); err == nil {
		t.Fatal("stray ')' accepted")
	}
	// ...and a later, well-formed rule after a stray ')' line still
	// sees its newline separators.
	rules, err := Parse("# )\nIF a IS x THEN out IS applicable\nIF b IS y THEN out IS applicable")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("parsed %d rules, want 2", len(rules))
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on bad input")
		}
	}()
	MustParse("IF broken")
}

func TestParseLongRuleBase(t *testing.T) {
	// A rule base the size the paper mentions (~40 rules) parses cleanly.
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		sb.WriteString("IF cpuLoad IS high AND memLoad IS low THEN move IS applicable\n")
	}
	rules, err := Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 40 {
		t.Fatalf("parsed %d rules, want 40", len(rules))
	}
}

func TestRuleInputVars(t *testing.T) {
	r, err := ParseRule(`IF cpuLoad IS high AND (memLoad IS low OR cpuLoad IS medium) THEN move IS applicable`)
	if err != nil {
		t.Fatal(err)
	}
	vars := r.InputVars()
	if !vars["cpuLoad"] || !vars["memLoad"] || len(vars) != 2 {
		t.Errorf("InputVars = %v", vars)
	}
}

// ParseRule parses a single rule. Trailing input is an error.
func ParseRule(src string) (Rule, error) {
	rules, err := Parse(src)
	if err != nil {
		return Rule{}, err
	}
	if len(rules) != 1 {
		return Rule{}, fmt.Errorf("fuzzy: expected exactly one rule, found %d", len(rules))
	}
	return rules[0], nil
}
