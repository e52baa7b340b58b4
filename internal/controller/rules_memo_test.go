package controller

import (
	"testing"

	"autoglobe/internal/fuzzy"
	"autoglobe/internal/monitor"
	"autoglobe/internal/service"
)

// TestDefaultRulesMemoized checks that the default rule bases are parsed
// and compiled once per process: repeated calls hand out the same
// *RuleBase values. Sweeps construct hundreds of controllers, so
// re-parsing the ~40 rules per construction would dominate setup.
func TestDefaultRulesMemoized(t *testing.T) {
	a1 := DefaultActionRules()
	a2 := DefaultActionRules()
	if len(a1) != len(a2) {
		t.Fatalf("call sizes differ: %d vs %d", len(a1), len(a2))
	}
	for k, rb := range a1 {
		if a2[k] != rb {
			t.Errorf("action rule base %q not shared across calls", k)
		}
	}
	s1 := DefaultSelectionRules()
	s2 := DefaultSelectionRules()
	for k, rb := range s1 {
		if s2[k] != rb {
			t.Errorf("selection rule base %q not shared across calls", k)
		}
	}
}

// TestDefaultRulesMapIsolated checks that callers may mutate the
// returned maps (the documented contract: Config.ServiceRules overrides
// add entries) without poisoning later calls.
func TestDefaultRulesMapIsolated(t *testing.T) {
	m := DefaultActionRules()
	orig := m[monitor.ServiceOverloaded]
	m[monitor.ServiceOverloaded] = nil
	delete(m, monitor.ServiceIdle)
	m["madeUpTrigger"] = orig

	fresh := DefaultActionRules()
	if fresh[monitor.ServiceOverloaded] != orig {
		t.Error("mutating a returned map leaked into later DefaultActionRules calls")
	}
	if _, ok := fresh[monitor.ServiceIdle]; !ok {
		t.Error("deleting from a returned map leaked into later calls")
	}
	if _, ok := fresh["madeUpTrigger"]; ok {
		t.Error("adding to a returned map leaked into later calls")
	}

	sm := DefaultSelectionRules()
	sOrig := sm[service.ActionMove]
	sm[service.ActionMove] = nil
	if DefaultSelectionRules()[service.ActionMove] != sOrig {
		t.Error("mutating a returned selection map leaked into later calls")
	}
}

// TestDefaultRulesConcurrent hammers the memoized accessors and shared
// rule bases from many goroutines; run under -race this guards the
// sync.Once initialization and the immutability of shared RuleBases.
func TestDefaultRulesConcurrent(t *testing.T) {
	const goroutines = 8
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			e := fuzzy.NewEngine(nil)
			for i := 0; i < 50; i++ {
				rb := DefaultActionRules()[monitor.ServiceOverloaded]
				res, err := e.InferVec(rb, vecOf(rb, map[string]float64{
					VarCPULoad:            0.8,
					VarMemLoad:            0.4,
					VarInstanceLoad:       0.9,
					VarServiceLoad:        0.7,
					VarPerformanceIndex:   2,
					VarInstancesOnServer:  2,
					VarInstancesOfService: 3,
				}))
				if err != nil {
					done <- err
					return
				}
				res.Release()
			}
			done <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
