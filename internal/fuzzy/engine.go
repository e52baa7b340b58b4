package fuzzy

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// RuleBase is a validated collection of rules sharing one vocabulary.
// A rule base is immutable after construction and safe for concurrent
// use; its compiled inference program (see compile.go) is built lazily
// at most once.
type RuleBase struct {
	Name string
	// Version is the rule registry's version of the base (see
	// internal/rules), set before the base is shared; 0 for a base built
	// in code.
	Version int
	rules   []Rule
	vocab   *Vocabulary

	// texts[i] is rules[i] rendered, and ranks[i] its place among the
	// texts in lexicographic order — both made once at construction, so
	// naming a fired rule renders nothing.
	texts []string
	ranks []int

	// outVars caches the sorted output-variable names, computed once at
	// construction: the order of the compiled program's output slots.
	outVars []string

	compileOnce sync.Once
	prog        *Program
}

// NewRuleBase builds a rule base from rules, validating every rule
// against the vocabulary.
func NewRuleBase(name string, vocab *Vocabulary, rules []Rule) (*RuleBase, error) {
	if vocab == nil {
		return nil, fmt.Errorf("fuzzy: rule base %q: nil vocabulary", name)
	}
	for _, r := range rules {
		if err := r.Validate(vocab); err != nil {
			return nil, fmt.Errorf("fuzzy: rule base %q: %w", name, err)
		}
	}
	return newRuleBase(name, vocab, slices.Clone(rules)), nil
}

// newRuleBase builds a rule base over validated rules it takes
// ownership of.
func newRuleBase(name string, vocab *Vocabulary, rules []Rule) *RuleBase {
	texts := make([]string, len(rules))
	order := make([]int, len(rules))
	for i, r := range rules {
		texts[i], order[i] = r.String(), i
	}
	slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(texts[a], texts[b]) })
	ranks := make([]int, len(rules))
	for rank, i := range order {
		ranks[i] = rank
	}
	return &RuleBase{Name: name, rules: rules, vocab: vocab, texts: texts, ranks: ranks, outVars: computeOutputVars(rules)}
}

// computeOutputVars returns the names of all output variables assigned
// by any rule, in lexicographic order.
func computeOutputVars(rules []Rule) []string {
	set := make(map[string]bool)
	for _, r := range rules {
		for _, c := range r.Consequents {
			set[c.Var] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// MustRuleBase is NewRuleBase panicking on error, for built-in rule bases.
func MustRuleBase(name string, vocab *Vocabulary, rules []Rule) *RuleBase {
	rb, err := NewRuleBase(name, vocab, rules)
	if err != nil {
		panic(err)
	}
	return rb
}

// RuleAt returns the i-th rule without copying the whole list — the
// allocation-free accessor for hot paths that only need to inspect
// individual rules (e.g. building decision explanations).
func (rb *RuleBase) RuleAt(i int) Rule { return rb.rules[i] }

// RuleID names one rule for as long as its rule base lives: the base's
// name and version and the rule's index in it. A rule base never
// changes once built, so the id of a fired rule joins a decision, a
// counter and an offline tool to the same rule without its text.
type RuleID struct {
	Base    string
	Version int
	Index   int
}

// ID returns the id of the i-th rule.
func (rb *RuleBase) ID(i int) RuleID { return RuleID{Base: rb.Name, Version: rb.Version, Index: i} }

// Text returns the i-th rule rendered in rule-language syntax — the
// string Rule.String builds, rendered once when the base was built.
func (rb *RuleBase) Text(i int) string { return rb.texts[i] }

// Rank returns the place of the i-th rule's text among the base's rule
// texts in lexicographic order: comparing ranks orders rules as
// comparing their texts would.
func (rb *RuleBase) Rank(i int) int { return rb.ranks[i] }

// Len returns the number of rules.
func (rb *RuleBase) Len() int { return len(rb.rules) }

// Extend returns a new rule base with additional rules appended. The
// AutoGlobe controller uses this to layer service-specific rule bases on
// top of the defaults (Section 4.1: "an administrator can add
// service-specific rule bases for mission critical services"). Only the
// new rules are validated — the existing ones were validated when rb was
// built — and the merged list is copied exactly once.
func (rb *RuleBase) Extend(name string, rules []Rule) (*RuleBase, error) {
	for _, r := range rules {
		if err := r.Validate(rb.vocab); err != nil {
			return nil, fmt.Errorf("fuzzy: rule base %q: %w", name, err)
		}
	}
	merged := make([]Rule, 0, len(rb.rules)+len(rules))
	merged = append(merged, rb.rules...)
	merged = append(merged, rules...)
	return newRuleBase(name, rb.vocab, merged), nil
}

// OutputVars returns the names of all output variables assigned by any
// rule, in lexicographic order. The list is computed once at
// construction; callers receive a copy.
func (rb *RuleBase) OutputVars() []string {
	out := make([]string, len(rb.outVars))
	copy(out, rb.outVars)
	return out
}

// Inference selects how a rule's antecedent truth shapes its consequent
// set.
type Inference int

const (
	// MaxMin clips the consequent at the antecedent truth — the paper's
	// "popular max-min inference function".
	MaxMin Inference = iota
	// MaxProduct scales the consequent by the antecedent truth,
	// preserving its shape; one of the alternatives "proposed in the
	// literature".
	MaxProduct
)

// String names the inference method.
func (inf Inference) String() string {
	if inf == MaxProduct {
		return "max-product"
	}
	return "max-min"
}

// Engine evaluates rule bases. The zero value is not usable; construct
// with NewEngine.
type Engine struct {
	defuzz    Defuzzifier
	inference Inference
}

// NewEngine returns an engine using the given defuzzifier, defaulting to
// the paper's leftmost-maximum method when nil, with max–min inference.
func NewEngine(d Defuzzifier) *Engine {
	if d == nil {
		d = LeftMax{}
	}
	return &Engine{defuzz: d}
}

// WithInference sets the inference method and returns the engine.
func (e *Engine) WithInference(inf Inference) *Engine {
	e.inference = inf
	return e
}

// Defuzzifier returns the engine's defuzzification method.
func (e *Engine) Defuzzifier() Defuzzifier { return e.defuzz }

// Result holds the outcome of one inference cycle.
type Result struct {
	// Outputs holds the crisp defuzzified value of every output variable
	// of the rule base, indexed like RuleBase.OutputVars. Variables no
	// rule fired for read 0.
	Outputs []float64
	// Fired lists, for each rule index, the antecedent degree of truth.
	Fired []float64

	// sets holds the combined output sets the inference defuzzified, in
	// the rule base's output-variable order, for the next inference to
	// reuse; nil when it needed none.
	sets []*Set
	// home is the pool the Result returns to on Release.
	home *sync.Pool
}

// Release returns the Result to its rule base's buffer pool so a later
// inference can reuse its buffers, making steady-state
// compiled inference allocation-free. After Release the Result must no
// longer be read. Release is optional — an unreleased Result is simply
// collected by the GC — and calling it more than once is a no-op.
func (r *Result) Release() {
	if r.home == nil {
		return
	}
	h := r.home
	r.home = nil
	h.Put(r)
}

// InferVec runs one fuzzification → inference → defuzzification cycle
// using the rule base's compiled program (see compile.go); the program
// is compiled on first use. vals[i] is the crisp measurement for the
// i-th input slot of the program (slot order via Program.Inputs, fixed
// when the base compiles): callers resolve names to slots once per rule
// base and fill a recycled vector per call. Every slot must be filled —
// a caller that lacks a measurement reports Program.MissingInputError
// for its slot. InferVec is safe for concurrent use on a shared Engine
// and RuleBase.
//
// Call Release on the returned Result when done with it to recycle its
// buffers; steady-state inference then performs zero heap allocations.
func (e *Engine) InferVec(rb *RuleBase, vals []float64) (*Result, error) {
	return rb.program().run(e, vals)
}
