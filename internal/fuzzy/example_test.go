package fuzzy_test

import (
	"fmt"

	"autoglobe/internal/fuzzy"
)

// ExampleEngine_InferVec walks the paper's Section 3 inference: fuzzify,
// evaluate the rule base with max–min inference, defuzzify with the
// leftmost maximum. Inputs and outputs are slots fixed when the base
// compiles: the program's Inputs and the base's OutputVars name them.
func ExampleEngine_InferVec() {
	vocab := fuzzy.NewVocabulary()
	vocab.Add(fuzzy.StandardLoad("cpuLoad"))
	vocab.Add(fuzzy.Applicability("scaleOut"))

	rules := fuzzy.MustParse(`IF cpuLoad IS high THEN scaleOut IS applicable`)
	rb, err := fuzzy.NewRuleBase("demo", vocab, rules)
	if err != nil {
		panic(err)
	}
	vals := []float64{0.9} // rb.Compile().Inputs(): [cpuLoad]
	res, err := fuzzy.NewEngine(nil).InferVec(rb, vals)
	if err != nil {
		panic(err)
	}
	for i, name := range rb.OutputVars() {
		fmt.Printf("%s applicability: %.2f\n", name, res.Outputs[i])
	}
	// Output: scaleOut applicability: 0.80
}

// ExampleParse shows the rule language, including hedges and the
// IS NOT sugar.
func ExampleParse() {
	rules := fuzzy.MustParse(`
		IF cpuLoad IS very high AND memLoad IS NOT low THEN move IS applicable
		IF cpuLoad IS low THEN reducePriority IS applicable
	`)
	for _, r := range rules {
		fmt.Println(r)
	}
	// Output:
	// IF cpuLoad IS very high AND (NOT memLoad IS low) THEN move IS applicable
	// IF cpuLoad IS low THEN reducePriority IS applicable
}
