package fuzzy

import (
	"fmt"
	"strings"
	"unicode"
)

// The rule language grammar (keywords are case-insensitive):
//
//	rules      := rule*                         (separated by ';' or newline)
//	rule       := IF orExpr THEN consequent (AND consequent)*
//	orExpr     := andExpr (OR andExpr)*
//	andExpr    := unary (AND unary)*
//	unary      := NOT unary | primary
//	primary    := '(' orExpr ')' | ident IS [NOT] ident
//	consequent := ident IS ident
//
// '#' starts a comment running to the end of the line.

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokIf
	tokThen
	tokAnd
	tokOr
	tokNot
	tokIs
	tokLParen
	tokRParen
	tokSemi
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokIf:
		return "IF"
	case tokThen:
		return "THEN"
	case tokAnd:
		return "AND"
	case tokOr:
		return "OR"
	case tokNot:
		return "NOT"
	case tokIs:
		return "IS"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokSemi:
		return "';'"
	}
	return "unknown token"
}

type token struct {
	kind tokenKind
	text string
	pos  int // byte offset in the source, for error messages
	line int
}

var keywords = map[string]tokenKind{
	"IF": tokIf, "THEN": tokThen, "AND": tokAnd,
	"OR": tokOr, "NOT": tokNot, "IS": tokIs,
}

// lex tokenizes src. Rule separators (';' and newlines between rules) are
// emitted as tokSemi so the parser can delimit rules. Newlines inside an
// open parenthesized group are plain whitespace — a multi-line antecedent
// like "(performanceIndex IS low\n OR performanceIndex IS medium)" must
// not be cut into two rules — so the lexer tracks paren depth and only
// emits tokSemi for a newline at depth zero.
func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	depth := 0
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			if depth == 0 {
				toks = append(toks, token{tokSemi, "\n", i, line})
			}
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == ';':
			toks = append(toks, token{tokSemi, ";", i, line})
			i++
		case c == '(':
			depth++
			toks = append(toks, token{tokLParen, "(", i, line})
			i++
		case c == ')':
			if depth > 0 {
				depth--
			}
			toks = append(toks, token{tokRParen, ")", i, line})
			i++
		case isIdentStart(rune(c)):
			start := i
			for i < len(src) && isIdentPart(rune(src[i])) {
				i++
			}
			word := src[start:i]
			if kind, ok := keywords[strings.ToUpper(word)]; ok {
				toks = append(toks, token{kind, word, start, line})
			} else {
				toks = append(toks, token{tokIdent, word, start, line})
			}
		default:
			return nil, fmt.Errorf("fuzzy: line %d: unexpected character %q", line, c)
		}
	}
	toks = append(toks, token{tokEOF, "", len(src), line})
	return toks, nil
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.'
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// skipSemis consumes any run of separators.
func (p *parser) skipSemis() {
	for p.peek().kind == tokSemi {
		p.pos++
	}
}

func (p *parser) expect(kind tokenKind) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, fmt.Errorf("fuzzy: line %d: expected %v, found %v %q", t.line, kind, t.kind, t.text)
	}
	return t, nil
}

// Parse parses a sequence of rules separated by semicolons or newlines.
// A rule may span several lines: line breaks inside a rule (before THEN,
// inside parentheses, after AND/OR, …) are tolerated because the parser
// only treats separators between complete rules as delimiters.
func Parse(src string) ([]Rule, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var rules []Rule
	for {
		p.skipSemis()
		if p.peek().kind == tokEOF {
			return rules, nil
		}
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
}

func (p *parser) parseRule() (Rule, error) {
	if _, err := p.expect(tokIf); err != nil {
		return Rule{}, err
	}
	ante, err := p.parseOr()
	if err != nil {
		return Rule{}, err
	}
	p.skipNewlinesBefore(tokThen)
	if _, err := p.expect(tokThen); err != nil {
		return Rule{}, err
	}
	var cons []Assignment
	for {
		a, err := p.parseAssignment()
		if err != nil {
			return Rule{}, err
		}
		cons = append(cons, a)
		p.skipNewlinesBefore(tokAnd)
		if p.peek().kind == tokAnd {
			p.next()
			continue
		}
		break
	}
	// After the consequent the rule must end.
	switch t := p.peek(); t.kind {
	case tokSemi, tokEOF:
		return Rule{Antecedent: ante, Consequents: cons}, nil
	default:
		return Rule{}, fmt.Errorf("fuzzy: line %d: unexpected %v %q after rule", t.line, t.kind, t.text)
	}
}

// skipNewlinesBefore consumes newline separators if the next significant
// token has the given kind, allowing rules to wrap before THEN.
func (p *parser) skipNewlinesBefore(kind tokenKind) {
	save := p.pos
	p.skipSemis()
	if p.peek().kind != kind {
		p.pos = save
	}
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for {
		p.skipNewlinesBefore(tokOr)
		if p.peek().kind != tokOr {
			return left, nil
		}
		p.next()
		p.skipSemis() // allow a line break after OR
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = OrExpr{left, right}
	}
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		p.skipNewlinesBefore(tokAnd)
		if p.peek().kind != tokAnd {
			return left, nil
		}
		// Lookahead: "AND <ident> IS" here is an antecedent conjunction;
		// the THEN keyword terminates the antecedent, so AND following
		// THEN never reaches this code path.
		p.next()
		p.skipSemis() // allow a line break after AND
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = AndExpr{left, right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.peek().kind == tokNot {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return NotExpr{x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	switch t := p.peek(); t.kind {
	case tokLParen:
		p.next()
		p.skipSemis()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		p.skipNewlinesBefore(tokRParen)
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		return p.parseIs()
	default:
		return nil, fmt.Errorf("fuzzy: line %d: expected condition, found %v %q", t.line, t.kind, t.text)
	}
}

// parseIs parses "var IS [NOT] [hedge] term", where hedge is one of
// very, extremely, somewhat.
func (p *parser) parseIs() (Expr, error) {
	v, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokIs); err != nil {
		return nil, err
	}
	negated := false
	if p.peek().kind == tokNot {
		p.next()
		negated = true
	}
	term, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	hedge := HedgeNone
	switch Hedge(strings.ToLower(term.text)) {
	case HedgeVery, HedgeExtremely, HedgeSomewhat:
		// Only a hedge if another identifier (the real term) follows;
		// otherwise "very" is the term name itself.
		if p.peek().kind == tokIdent {
			hedge = Hedge(strings.ToLower(term.text))
			term = p.next()
		}
	}
	var e Expr = IsExpr{Var: v.text, Hedge: hedge, Term: term.text}
	if negated {
		e = NotExpr{e}
	}
	return e, nil
}

func (p *parser) parseAssignment() (Assignment, error) {
	v, err := p.expect(tokIdent)
	if err != nil {
		return Assignment{}, err
	}
	if _, err := p.expect(tokIs); err != nil {
		return Assignment{}, err
	}
	term, err := p.expect(tokIdent)
	if err != nil {
		return Assignment{}, err
	}
	return Assignment{Var: v.text, Term: term.text}, nil
}

// MustParse parses rules and panics on error. Intended for built-in rule
// bases defined as source-code literals, where a parse error is a bug.
func MustParse(src string) []Rule {
	rules, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return rules
}
