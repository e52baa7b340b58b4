package fuzzy

import (
	"fmt"
	"sort"
	"sync"
)

// This file implements the compiled inference fast path. A RuleBase is
// lowered once into a Program: an index-based representation in which
// every antecedent is a postfix instruction sequence over pre-resolved
// fuzzification slots, every consequent references a pre-sampled output
// set, and all per-inference working memory (fuzzification grades,
// evaluation stack, Result buffers) comes from sync.Pools. Steady-state
// compiled inference performs zero heap allocations when callers return
// Results to the pool via Result.Release.
//
// The program is the package's one inference engine. Its tests hold a
// tree-walking reference interpreter (interpret_test.go) and require
// bit-for-bit agreement with it: rules are evaluated in the same order,
// fuzzification grades are memoized per (variable, term) as the
// interpreter's memo map does, and consequent sets are pre-sampled with
// the universe discretization the interpreter samples at every call.
//
// For the paper's configuration — max–min inference, leftmost-maximum
// defuzzification — no output set is built at all. With h_c the fired
// truth of consequent c's rule and pre_c its pre-sampled set, the union
// is A[i] = max_c min(pre_c[i], h_c), and:
//
//  1. its height is H = max_c min(height(pre_c), h_c): min and max
//     commute with the maximum over i;
//  2. no sample exceeds H, and min(pre_c[i], h_c) == H exactly when c's
//     own cap min(height(pre_c), h_c) is H and pre_c[i] ≥ H;
//  3. so the leftmost sample at H is the least first{i : pre_c[i] ≥ H}
//     over the consequents capped at H — a binary search in pre_c's
//     prefix maxima, tabulated at compile time;
//  4. which only compares floats the sampled union compares and computes
//     none: the result is bit-equal to LeftMax over the union, whatever
//     the shape of the membership functions (outputSlot.leftMax).

// Opcode of one compiled antecedent instruction.
const (
	opAtom byte = iota // push hedge(grades[atom])
	opNot              // top = 1 - top
	opAnd              // pop y; top = min(top, y)
	opOr               // pop y; top = max(top, y)
)

// instr is one postfix instruction of a compiled antecedent.
type instr struct {
	op    byte
	hedge Hedge
	atom  int32 // opAtom: index into Program.atoms
}

// inputSlot is one distinct input variable referenced by the rule base.
type inputSlot struct {
	name     string
	min, max float64 // universe, for measurement clamping
	ruleIdx  int     // first rule referencing the variable (error context)
}

// atomSlot is one distinct (variable, term) fuzzification, shared by all
// antecedent atoms referencing the pair — the compiled analogue of the
// interpreter's per-call memo map.
type atomSlot struct {
	input int // index into Program.inputs
	mf    MembershipFunc
}

// compiledConsequent is one "THEN var IS term" clause with the term's
// membership function pre-sampled over the output universe, so inference
// reads plain float slices instead of re-evaluating the function at
// every sample point.
type compiledConsequent struct {
	rule   int32   // index into Program.rules and Result.Fired
	height float64 // pre.Height(), beside rule: cap reads one cache line
	pre    *Set
	pmax   [setSamples]float64 // pmax[i] = max(pre.grades[:i+1])
}

// newConsequent tabulates pre's prefix maxima for the given rule.
func newConsequent(rule int, pre *Set) compiledConsequent {
	c := compiledConsequent{rule: int32(rule), pre: pre}
	for i, g := range pre.grades {
		if g > c.height {
			c.height = g
		}
		c.pmax[i] = c.height
	}
	return c
}

// outputSlot is one distinct output variable of the rule base with the
// consequents assigning it, in rule order.
type outputSlot struct {
	name     string
	min, max float64
	cons     []compiledConsequent
}

// Program is the compiled, immutable form of a rule base. It is safe for
// concurrent use by any number of goroutines: all mutable working memory
// is pooled per call.
type Program struct {
	rb       *RuleBase
	inputs   []inputSlot
	atoms    []atomSlot
	rules    [][]instr // each rule's lowered antecedent
	outputs  []outputSlot
	maxDepth int // deepest evaluation stack across all rules

	scratch sync.Pool // of *inferScratch
	results sync.Pool // of *Result
}

// inferScratch is the per-call working memory of a compiled inference.
type inferScratch struct {
	inVals []float64 // clamped measurements, by input slot
	grades []float64 // memoized fuzzification grades, by atom slot
	stack  []float64 // antecedent evaluation stack
}

// Compile lowers the rule base into its index-based program. Compilation
// happens at most once per rule base (Engine.Infer compiles lazily on
// first use); calling Compile eagerly simply warms the program, e.g.
// before handing the rule base to concurrent controllers.
func (rb *RuleBase) Compile() *Program { return rb.program() }

// program returns the lazily compiled program.
func (rb *RuleBase) program() *Program {
	rb.compileOnce.Do(func() { rb.prog = compile(rb) })
	return rb.prog
}

// compile builds the program. The rule base was validated at
// construction, so every variable and term lookup must succeed.
func compile(rb *RuleBase) *Program {
	p := &Program{rb: rb}

	inputIdx := make(map[string]int)
	type atomKey struct{ v, t string }
	atomIdx := make(map[atomKey]int)

	intern := func(ruleIdx int, v, t string) int32 {
		k := atomKey{v, t}
		if i, ok := atomIdx[k]; ok {
			return int32(i)
		}
		in, ok := inputIdx[v]
		if !ok {
			vr, found := rb.vocab.Get(v)
			if !found {
				panic(fmt.Sprintf("fuzzy: compile %q: unknown variable %q", rb.Name, v))
			}
			in = len(p.inputs)
			inputIdx[v] = in
			p.inputs = append(p.inputs, inputSlot{
				name: v, min: vr.Min, max: vr.Max, ruleIdx: ruleIdx,
			})
		}
		vr, _ := rb.vocab.Get(v)
		term, found := vr.Term(t)
		if !found {
			panic(fmt.Sprintf("fuzzy: compile %q: variable %q has no term %q", rb.Name, v, t))
		}
		i := len(p.atoms)
		atomIdx[atomKey{v, t}] = i
		p.atoms = append(p.atoms, atomSlot{input: in, mf: term.MF})
		return int32(i)
	}

	// lower emits postfix code for an antecedent expression and returns
	// its maximum evaluation stack depth.
	var lower func(ruleIdx int, e Expr, code *[]instr) int
	lower = func(ruleIdx int, e Expr, code *[]instr) int {
		switch e := e.(type) {
		case IsExpr:
			*code = append(*code, instr{op: opAtom, hedge: e.Hedge, atom: intern(ruleIdx, e.Var, e.Term)})
			return 1
		case NotExpr:
			d := lower(ruleIdx, e.X, code)
			*code = append(*code, instr{op: opNot})
			return d
		case AndExpr:
			dx := lower(ruleIdx, e.X, code)
			dy := lower(ruleIdx, e.Y, code)
			*code = append(*code, instr{op: opAnd})
			return maxInt(dx, dy+1)
		case OrExpr:
			dx := lower(ruleIdx, e.X, code)
			dy := lower(ruleIdx, e.Y, code)
			*code = append(*code, instr{op: opOr})
			return maxInt(dx, dy+1)
		default:
			panic(fmt.Sprintf("fuzzy: compile %q: unknown expression node %T", rb.Name, e))
		}
	}

	outIdx := make(map[string]int, len(rb.outVars))
	for _, name := range rb.outVars {
		v, ok := rb.vocab.Get(name)
		if !ok {
			panic(fmt.Sprintf("fuzzy: compile %q: unknown output variable %q", rb.Name, name))
		}
		outIdx[name] = len(p.outputs)
		p.outputs = append(p.outputs, outputSlot{name: name, min: v.Min, max: v.Max})
	}

	for i, r := range rb.rules {
		var code []instr
		depth := lower(i, r.Antecedent, &code)
		if depth > p.maxDepth {
			p.maxDepth = depth
		}
		for _, c := range r.Consequents {
			v, _ := rb.vocab.Get(c.Var)
			t, _ := v.Term(c.Term) // validated at construction
			// Pre-sample the consequent term over the output universe.
			// Fill applies exactly the clamp01(mf(x(i))) the interpreter
			// evaluates per call, so union results are bit-identical.
			pre := NewSet(v.Min, v.Max).Fill(t.MF)
			o := &p.outputs[outIdx[c.Var]]
			o.cons = append(o.cons, newConsequent(i, pre))
		}
		p.rules = append(p.rules, code)
	}

	p.scratch.New = func() any {
		return &inferScratch{
			inVals: make([]float64, len(p.inputs)),
			grades: make([]float64, len(p.atoms)),
			stack:  make([]float64, p.maxDepth),
		}
	}
	return p
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// newResult hands out a Result sized for the program, recycling released
// ones. A recycled Result keeps its map and buffers and finish overwrites
// every entry, so steady-state inference does not allocate. The pool is
// shared by every engine: a recycled Result may carry stale sets from a
// sampled inference or none from a closed-form one; finish sorts that out.
func (p *Program) newResult() *Result {
	if v := p.results.Get(); v != nil {
		res := v.(*Result)
		res.home = &p.results
		return res
	}
	return &Result{
		Outputs: make(map[string]float64, len(p.outputs)),
		Fired:   make([]float64, len(p.rules)),
		home:    &p.results,
	}
}

// NumInputs returns the number of distinct input variables the compiled
// program gathers — the length of the vector RunVec expects.
func (p *Program) NumInputs() int { return len(p.inputs) }

// Inputs returns the names of the program's distinct input variables in
// slot order: the i-th element names the variable a vector-based
// inference reads from vals[i]. Callers receive a copy; the ordering is
// fixed at compile time (first-reference order over the rule list).
func (p *Program) Inputs() []string {
	out := make([]string, len(p.inputs))
	for i := range p.inputs {
		out[i] = p.inputs[i].name
	}
	return out
}

// MissingInputError builds the exact error the map-based Infer path
// reports when the i-th input slot has no measurement, so callers that
// gather inputs themselves (the vector path) surface byte-identical
// error semantics.
func (p *Program) MissingInputError(i int) error {
	in := &p.inputs[i]
	r := in.ruleIdx
	return fmt.Errorf("fuzzy: rule base %q, rule %d (%s): fuzzy: no measurement for input variable %q",
		p.rb.Name, r, p.rb.rules[r], in.name)
}

// run executes one fuzzification → inference → defuzzification cycle
// of the compiled program over a map of measurements, one lookup per
// distinct input variable. A missing measurement reports the first rule
// referencing the variable.
func (p *Program) run(e *Engine, inputs map[string]float64) (*Result, error) {
	sc := p.scratch.Get().(*inferScratch)
	defer p.scratch.Put(sc)
	for i := range p.inputs {
		x, ok := inputs[p.inputs[i].name]
		if !ok {
			return nil, p.MissingInputError(i)
		}
		sc.inVals[i] = x
	}
	return p.finish(e, sc), nil
}

// runVec is run over a caller-filled input vector: vals[i] is the
// measurement for the i-th input slot (see Inputs). The caller must
// fill every slot — slot resolution and missing-input detection happen
// at bind time, not per inference — and retains vals; the program
// copies the values into pooled scratch, so the same recycled vector can
// back any number of inferences.
func (p *Program) runVec(e *Engine, vals []float64) (*Result, error) {
	if len(vals) != len(p.inputs) {
		return nil, fmt.Errorf("fuzzy: rule base %q: input vector has %d slots, program expects %d",
			p.rb.Name, len(vals), len(p.inputs))
	}
	sc := p.scratch.Get().(*inferScratch)
	defer p.scratch.Put(sc)
	copy(sc.inVals, vals)
	return p.finish(e, sc), nil
}

// finish clamps the gathered measurements to their universes and runs
// fuzzification, rule evaluation and defuzzification — the shared tail
// of run and runVec, which differ only in where the values come from.
func (p *Program) finish(e *Engine, sc *inferScratch) *Result {
	for i := range p.inputs {
		in := &p.inputs[i]
		if x := sc.inVals[i]; x < in.min {
			sc.inVals[i] = in.min
		} else if x > in.max {
			sc.inVals[i] = in.max
		}
	}
	// Fuzzify every distinct (variable, term) pair once — the compiled
	// form of the interpreter's memo map.
	for i := range p.atoms {
		a := &p.atoms[i]
		sc.grades[i] = clamp01(a.mf(sc.inVals[a.input]))
	}

	res := p.newResult()
	for i, code := range p.rules {
		res.Fired[i] = clamp01(evalCode(code, sc.grades, sc.stack))
	}
	if _, ok := e.defuzz.(LeftMax); ok && e.inference == MaxMin {
		// The paper's configuration needs no output set (see leftMax).
		res.sets = nil
		for i := range p.outputs {
			o := &p.outputs[i]
			res.Outputs[o.name] = o.leftMax(res.Fired)
		}
		return res
	}
	if res.sets == nil {
		res.sets = make([]*Set, len(p.outputs))
	}
	for i := range p.outputs {
		o := &p.outputs[i]
		res.sets[i] = o.aggregate(res.sets[i], res.Fired, e.inference)
		res.Outputs[o.name] = e.defuzz.Defuzzify(res.sets[i])
	}
	return res
}

// aggregate materialises the output's combined set — the union of its
// consequents' pre-sampled sets, each shaped by its rule's fired truth —
// into dst, cleared first (a nil dst is allocated). It is the one sampled
// union: every engine configuration but the paper's defuzzifies its
// result.
func (o *outputSlot) aggregate(dst *Set, fired []float64, inf Inference) *Set {
	if dst == nil {
		dst = NewSet(o.min, o.max)
	} else {
		dst.grades = [setSamples]float64{}
	}
	for i := range o.cons {
		c := &o.cons[i]
		if inf == MaxProduct {
			dst.UnionScaledSet(c.pre, fired[c.rule])
		} else {
			dst.UnionClippedSet(c.pre, fired[c.rule])
		}
	}
	return dst
}

// cap returns the height the consequent reaches when clipped at its
// rule's fired truth: min(height, clamp01(truth)), in the comparison
// UnionClippedSet makes, under which a NaN truth does not clip.
func (c *compiledConsequent) cap(fired []float64) float64 {
	if h := clamp01(fired[c.rule]); h < c.height {
		return h
	}
	return c.height
}

// height is o.aggregate(nil, fired, MaxMin).Height() without the set.
func (o *outputSlot) height(fired []float64) float64 {
	height := 0.0
	for i := range o.cons {
		if h := o.cons[i].cap(fired); h > height {
			height = h
		}
	}
	return height
}

// leftMax is LeftMax{}.Defuzzify(o.aggregate(nil, fired, MaxMin)) without
// the set, by the argument in this file's header.
func (o *outputSlot) leftMax(fired []float64) float64 {
	height := o.height(fired)
	if height == 0 {
		return 0
	}
	first := setSamples
	for i := range o.cons {
		c := &o.cons[i]
		if c.cap(fired) != height {
			continue
		}
		first = sort.SearchFloat64s(c.pmax[:first], height)
	}
	return o.cons[0].pre.x(first)
}

// evalCode runs one antecedent's postfix instruction sequence over the
// fuzzification grades. stack has room for the program's deepest
// expression; values stay in [0, 1].
func evalCode(code []instr, grades, stack []float64) float64 {
	sp := 0
	for i := range code {
		ins := &code[i]
		switch ins.op {
		case opAtom:
			stack[sp] = ins.hedge.Apply(grades[ins.atom])
			sp++
		case opNot:
			stack[sp-1] = 1 - stack[sp-1]
		case opAnd:
			sp--
			if stack[sp] < stack[sp-1] {
				stack[sp-1] = stack[sp]
			}
		case opOr:
			sp--
			if stack[sp] > stack[sp-1] {
				stack[sp-1] = stack[sp]
			}
		}
	}
	return stack[sp-1]
}
