// Command fuzzyc evaluates fuzzy rule bases from the command line: it
// parses rules in AutoGlobe's rule language, validates them against the
// controller's vocabulary, and runs one inference cycle against crisp
// inputs given as name=value pairs.
//
// Usage:
//
//	fuzzyc -rules rules.txt cpuLoad=0.9 performanceIndex=2 ...
//	echo 'IF cpuLoad IS high THEN scaleUp IS applicable' | fuzzyc cpuLoad=0.9
//	fuzzyc -builtin serviceOverloaded cpuLoad=0.85 memLoad=0.4 instanceLoad=0.8 \
//	       serviceLoad=0.75 instancesOnServer=2 instancesOfService=3 performanceIndex=1
//
// The replay subcommand validates a candidate rule file exactly like a
// rules-directory load would and diffs it against the built-in (or a given)
// baseline over real archived load from a tsdb-backed archive
// directory — the offline first step of promoting a rule edit:
//
//	fuzzyc replay -name serviceIdle -rules candidate.rules \
//	       -archive-dir /var/lib/autoglobe/archive instancesOfService=5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"autoglobe/internal/controller"
	"autoglobe/internal/fuzzy"
	"autoglobe/internal/monitor"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "replay" {
		runReplay(os.Args[2:])
		return
	}
	var (
		rulesPath = flag.String("rules", "", "file with rules in the rule language (default: stdin)")
		builtin   = flag.String("builtin", "", "evaluate a built-in rule base instead: serviceOverloaded, serviceIdle, serverOverloaded, serverIdle")
		defuzz    = flag.String("defuzz", "leftmax", "defuzzifier: leftmax, meanofmax, centroid")
		dump      = flag.Bool("dump", false, "print the parsed rules before evaluating")
	)
	flag.Parse()

	inputs, err := parseInputs(flag.Args())
	if err != nil {
		fatal(err)
	}

	var d fuzzy.Defuzzifier
	switch strings.ToLower(*defuzz) {
	case "leftmax":
		d = fuzzy.LeftMax{}
	case "meanofmax":
		d = fuzzy.MeanOfMax{}
	case "centroid":
		d = fuzzy.Centroid{}
	default:
		fatal(fmt.Errorf("unknown defuzzifier %q", *defuzz))
	}

	var rb *fuzzy.RuleBase
	switch {
	case *builtin != "":
		all := controller.DefaultActionRules()
		var ok bool
		rb, ok = all[monitor.TriggerKind(*builtin)]
		if !ok {
			fatal(fmt.Errorf("unknown built-in rule base %q", *builtin))
		}
	default:
		src, err := readRules(*rulesPath)
		if err != nil {
			fatal(err)
		}
		rules, err := fuzzy.Parse(src)
		if err != nil {
			fatal(err)
		}
		rb, err = fuzzy.NewRuleBase("cli", controller.ActionVocabulary(), rules)
		if err != nil {
			fatal(err)
		}
	}

	if *dump {
		for i := 0; i < rb.Len(); i++ {
			fmt.Printf("rule %2d: %s\n", i+1, rb.Text(i))
		}
	}

	vals, err := bind(rb, inputs)
	if err != nil {
		fatal(err)
	}
	res, err := fuzzy.NewEngine(d).InferVec(rb, vals)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("rule base %q (%d rules), defuzzifier %s\n", rb.Name, rb.Len(), d.Name())
	for i, truth := range res.Fired {
		if truth > 0 {
			fmt.Printf("  fired %.2f: %s\n", truth, rb.Text(i))
		}
	}
	// Outputs come in name order; print them by value, highest first,
	// ties in name order.
	names := rb.OutputVars()
	order := make([]int, len(names))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return res.Outputs[order[i]] > res.Outputs[order[j]] })
	fmt.Println("outputs:")
	for _, o := range order {
		fmt.Printf("  %-20s %.3f\n", names[o], res.Outputs[o])
	}
}

// bind lays the named measurements out in the input slots of the rule
// base's compiled program. A slot without a measurement is an error
// naming the variable and the first rule that reads it.
func bind(rb *fuzzy.RuleBase, inputs map[string]float64) ([]float64, error) {
	prog := rb.Compile()
	vals := make([]float64, prog.NumInputs())
	for i, name := range prog.Inputs() {
		x, ok := inputs[name]
		if !ok {
			return nil, prog.MissingInputError(i)
		}
		vals[i] = x
	}
	return vals, nil
}

func readRules(path string) (string, error) {
	if path == "" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func parseInputs(args []string) (map[string]float64, error) {
	inputs := make(map[string]float64, len(args))
	for _, a := range args {
		name, val, ok := strings.Cut(a, "=")
		if !ok {
			return nil, fmt.Errorf("argument %q is not name=value", a)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("argument %q: %v", a, err)
		}
		inputs[name] = v
	}
	return inputs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fuzzyc:", err)
	os.Exit(1)
}
