package controller

import (
	"slices"
	"sync"

	"autoglobe/internal/fuzzy"
)

// This file implements bound-input inference: instead of building a
// map[string]float64 per inference call, the controller resolves each
// rule base's compiled input-slot ordering ONCE into a binder — a
// per-slot enum saying which controller quantity feeds the slot — and
// then fills a recycled []float64 vector per call. Binding turns the
// per-candidate cost of server selection from "allocate + hash ten map
// entries" into "write ten float64 slots", which is what makes the
// steady-state selection path allocation-free end to end. Outputs come
// back as slots too: the binder keeps the base's output names, so the
// action path reads each action by slot and server selection reads the
// score slot.

// boundInput names the controller quantity feeding one input slot.
type boundInput uint8

const (
	// bindUnknown marks a variable the controller cannot supply: server
	// selection skips the host, action selection returns the program's
	// missing-measurement error for the slot.
	bindUnknown boundInput = iota
	bindCPULoad
	bindMemLoad
	bindPerformanceIndex
	bindInstanceLoad
	bindServiceLoad
	bindInstancesOnServer
	bindInstancesOfService
	bindForecastLoad
	bindForecastConfidence
	bindNumberOfCpus
	bindCPUClock
	bindCPUCache
	bindMemory
	bindSwapSpace
	bindTempSpace
)

// bindFor resolves a vocabulary variable name to its binding.
func bindFor(name string) boundInput {
	switch name {
	case VarCPULoad:
		return bindCPULoad
	case VarMemLoad:
		return bindMemLoad
	case VarPerformanceIndex:
		return bindPerformanceIndex
	case VarInstanceLoad:
		return bindInstanceLoad
	case VarServiceLoad:
		return bindServiceLoad
	case VarInstancesOnServer:
		return bindInstancesOnServer
	case VarInstancesOfService:
		return bindInstancesOfService
	case VarForecastLoad:
		return bindForecastLoad
	case VarForecastConfidence:
		return bindForecastConfidence
	case VarNumberOfCpus:
		return bindNumberOfCpus
	case VarCPUClock:
		return bindCPUClock
	case VarCPUCache:
		return bindCPUCache
	case VarMemory:
		return bindMemory
	case VarSwapSpace:
		return bindSwapSpace
	case VarTempSpace:
		return bindTempSpace
	}
	return bindUnknown
}

// binder carries a rule base's compiled program plus the resolved
// binding of every input slot, and the names of its output slots.
// Immutable after construction.
type binder struct {
	rb    *fuzzy.RuleBase
	prog  *fuzzy.Program
	slots []boundInput
	// outputs names every output slot of an inference Result
	// (RuleBase.OutputVars); score is the slot of VarScore, or -1 for a
	// base that asserts none, which scores every host 0.
	outputs []string
	score   int
}

// binders caches one binder per rule base, keyed by the immutable
// *fuzzy.RuleBase pointer. The cache is package-global rather than
// per-ruleSet because shadow mode clones the rule-set wrapper per
// trigger while the underlying rule bases stay shared — keying on the
// base keeps the cache bounded by the number of distinct compiled
// bases, not the number of overlay clones.
var binders sync.Map // *fuzzy.RuleBase -> *binder

// binderFor returns the rule base's binder, building it on first use.
func binderFor(rb *fuzzy.RuleBase) *binder {
	if v, ok := binders.Load(rb); ok {
		return v.(*binder)
	}
	prog := rb.Compile()
	names := prog.Inputs()
	outputs := rb.OutputVars()
	b := &binder{rb: rb, prog: prog, slots: make([]boundInput, len(names)),
		outputs: outputs, score: slices.Index(outputs, VarScore)}
	for i, n := range names {
		b.slots[i] = bindFor(n)
	}
	actual, _ := binders.LoadOrStore(rb, b)
	return actual.(*binder)
}

// vecFor returns one of the controller's recycled input vectors, sized
// for n slots. Only the single-goroutine decision path may use it.
func (c *Controller) vecFor(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}
