package fuzzy

import (
	"fmt"
	"sort"
	"sync"
)

// RuleBase is a validated collection of rules sharing one vocabulary.
// A rule base is immutable after construction and safe for concurrent
// use; its compiled inference program (see compile.go) is built lazily
// at most once.
type RuleBase struct {
	Name  string
	rules []Rule
	vocab *Vocabulary

	// outVars caches the sorted output-variable names, computed once at
	// construction instead of per Infer call.
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
	cp := make([]Rule, len(rules))
	copy(cp, rules)
	return &RuleBase{Name: name, rules: cp, vocab: vocab, outVars: computeOutputVars(cp)}, nil
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

// Rules returns a copy of the rule list.
func (rb *RuleBase) Rules() []Rule {
	cp := make([]Rule, len(rb.rules))
	copy(cp, rb.rules)
	return cp
}

// RuleAt returns the i-th rule without copying the whole list — the
// allocation-free accessor for hot paths that only need to inspect
// individual rules (e.g. building decision explanations).
func (rb *RuleBase) RuleAt(i int) Rule { return rb.rules[i] }

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
	return &RuleBase{Name: name, rules: merged, vocab: rb.vocab, outVars: computeOutputVars(merged)}, nil
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
	// Outputs maps every output variable of the rule base to its crisp
	// defuzzified value. Variables no rule fired for map to 0.
	Outputs map[string]float64
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
// Infer call can reuse its map and buffers, making steady-state
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

// Infer runs one fuzzification → inference → defuzzification cycle
// using the rule base's compiled program (see compile.go); the program
// is compiled transparently on first use. Infer is safe for concurrent
// use on a shared Engine and RuleBase.
//
// inputs maps variable names to crisp measurements. Every input variable
// referenced by a firing rule must be present; a missing input is an
// error (the AutoGlobe controller always initializes all variables from
// monitoring data or the load archive before triggering inference).
//
// Call Release on the returned Result when done with it to recycle its
// buffers; steady-state inference then performs zero heap allocations.
func (e *Engine) Infer(rb *RuleBase, inputs map[string]float64) (*Result, error) {
	return rb.program().run(e, inputs)
}

// InferVec is Infer over a pre-bound input vector: vals[i] is the crisp
// measurement for the i-th input slot of the rule base's compiled
// program (slot order via Program.Inputs, resolved once per rule base,
// not per call). Hot paths fill a recycled vector instead of building a
// map[string]float64 per inference, which removes the last steady-state
// allocation from the AutoGlobe server-selection loop. Every slot must
// be filled — callers detect missing measurements at bind time and
// report them with Program.MissingInputError, keeping error semantics
// identical to the map path. InferVec is bit-identical to Infer given
// equal inputs and safe for concurrent use.
func (e *Engine) InferVec(rb *RuleBase, vals []float64) (*Result, error) {
	return rb.program().runVec(e, vals)
}
