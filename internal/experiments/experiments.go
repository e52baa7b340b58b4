// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) plus the worked examples of Section 3. Each
// experiment returns a structured result whose String method prints the
// same rows or series the paper reports; the benchmarks in the
// repository root and cmd/autoglobe-sim drive them.
package experiments

import (
	"fmt"
	"strings"

	"autoglobe/internal/controller"
	"autoglobe/internal/fuzzy"
)

// Figure3Result holds the fuzzification of a crisp CPU load (Figure 3).
type Figure3Result struct {
	Load   float64
	Grades map[string]float64
}

// Figure3 fuzzifies the crisp CPU load l with the paper's cpuLoad
// linguistic variable. The paper's checkpoint: l = 0.6 yields
// medium = 0.5 and high = 0.2.
func Figure3(l float64) Figure3Result {
	v := fuzzy.StandardLoad("cpuLoad")
	return Figure3Result{Load: l, Grades: v.Fuzzify(l)}
}

func (r Figure3Result) String() string {
	return fmt.Sprintf("Figure 3: cpuLoad l=%.2f → low=%.2f medium=%.2f high=%.2f",
		r.Load, r.Grades["low"], r.Grades["medium"], r.Grades["high"])
}

// Figure5Result holds the Section 3 / Figure 5 inference example.
type Figure5Result struct {
	CPULoad         float64
	Rule1Truth      float64 // scale-up antecedent
	Rule2Truth      float64 // scale-out antecedent
	ScaleUpCrisp    float64
	ScaleOutCrisp   float64
	PreferredAction string
	DefuzzifierName string
}

// Figure5 reruns the paper's worked max–min inference: CPU load 0.9
// (μ_high = 0.8) with performance-index grades low 0, medium 0.6,
// high 0.3 fires the scale-up rule at 0.6 and the scale-out rule at 0.3;
// leftmost-maximum defuzzification returns exactly those applicability
// degrees, so the controller favors scale-up.
func Figure5() (Figure5Result, error) {
	pi := fuzzy.NewVariable("performanceIndex", 0, 10)
	pi.AddTerm("low", func(float64) float64 { return 0 })
	pi.AddTerm("medium", func(float64) float64 { return 0.6 })
	pi.AddTerm("high", func(float64) float64 { return 0.3 })
	vc := fuzzy.NewVocabulary()
	vc.Add(fuzzy.StandardLoad("cpuLoad"))
	vc.Add(pi)
	vc.Add(fuzzy.Applicability("scaleUp"))
	vc.Add(fuzzy.Applicability("scaleOut"))
	rb, err := fuzzy.NewRuleBase("section3", vc, fuzzy.MustParse(`
		IF cpuLoad IS high AND (performanceIndex IS low OR performanceIndex IS medium) THEN scaleUp IS applicable
		IF cpuLoad IS high AND performanceIndex IS high THEN scaleOut IS applicable
	`))
	if err != nil {
		return Figure5Result{}, err
	}
	engine := fuzzy.NewEngine(nil)
	res, err := engine.Infer(rb, map[string]float64{"cpuLoad": 0.9, "performanceIndex": 5})
	if err != nil {
		return Figure5Result{}, err
	}
	out := Figure5Result{
		CPULoad:         0.9,
		Rule1Truth:      res.Fired[0],
		Rule2Truth:      res.Fired[1],
		ScaleUpCrisp:    res.Outputs["scaleUp"],
		ScaleOutCrisp:   res.Outputs["scaleOut"],
		DefuzzifierName: engine.Defuzzifier().Name(),
	}
	out.PreferredAction = "scale-up"
	if out.ScaleOutCrisp > out.ScaleUpCrisp {
		out.PreferredAction = "scale-out"
	}
	return out, nil
}

func (r Figure5Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 5 / Section 3 inference (defuzzifier: %s)\n", r.DefuzzifierName)
	fmt.Fprintf(&sb, "  inputs: cpuLoad=%.1f (μ_high=0.8), perfIndex grades low=0 medium=0.6 high=0.3\n", r.CPULoad)
	fmt.Fprintf(&sb, "  rule 1 (scale-up)  antecedent truth = %.2f   [paper: 0.6]\n", r.Rule1Truth)
	fmt.Fprintf(&sb, "  rule 2 (scale-out) antecedent truth = %.2f   [paper: 0.3]\n", r.Rule2Truth)
	fmt.Fprintf(&sb, "  crisp: scaleUp=%.2f scaleOut=%.2f → controller favors %s",
		r.ScaleUpCrisp, r.ScaleOutCrisp, r.PreferredAction)
	return sb.String()
}

// RuleBaseStats summarizes the default rule bases — the paper reports a
// rule base "comprising about 40 rules".
type RuleBaseStats struct {
	PerTrigger map[string]int
	Selection  map[string]int
	Total      int
}

// RuleBases counts the rules of the built-in controller rule bases.
func RuleBases() RuleBaseStats {
	st := RuleBaseStats{PerTrigger: map[string]int{}, Selection: map[string]int{}}
	for kind, rb := range controller.DefaultActionRules() {
		st.PerTrigger[string(kind)] = rb.Len()
	}
	seen := map[string]bool{}
	for a, rb := range controller.DefaultSelectionRules() {
		st.Selection[string(a)] = rb.Len()
		if !seen[rb.Name] {
			seen[rb.Name] = true
		}
	}
	st.Total = controller.RuleCount()
	return st
}

func (s RuleBaseStats) String() string {
	return fmt.Sprintf("default controller rule bases: %d rules total (paper: about 40)", s.Total)
}
