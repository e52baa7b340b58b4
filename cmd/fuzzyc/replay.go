package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"autoglobe/internal/archive"
	"autoglobe/internal/controller"
	"autoglobe/internal/fuzzy"
	"autoglobe/internal/rules"
	"autoglobe/internal/tsdb"
)

// runReplay is the offline half of the rule administration loop: it
// validates a candidate rule file exactly like a coordinator push would
// (parse, vocabulary check, compile — addressed by rule-base name), and
// optionally replays archived load from a tsdb-backed archive directory
// through both the candidate and the currently-default base, reporting
// every sample where the two disagree on the winning action. An admin
// can judge a rule edit against yesterday's real load before pushing it
// anywhere near a live controller.
func runReplay(args []string) {
	fs := flag.NewFlagSet("fuzzyc replay", flag.ExitOnError)
	var (
		name       = fs.String("name", "", "rule-base name the candidate targets (serviceOverloaded, serverIdle, select/placement, ...); picks the vocabulary and the default baseline")
		rulesPath  = fs.String("rules", "", "candidate rule file (default: stdin)")
		basePath   = fs.String("baseline", "", "baseline rule file to diff against (default: the built-in source for -name)")
		archiveDir = fs.String("archive-dir", "", "tsdb-backed archive directory to replay (omit to only validate the candidate)")
		from       = fs.Int("from", 0, "first archived minute to replay")
		to         = fs.Int("to", -1, "last archived minute to replay (-1: everything archived)")
		maxReport  = fs.Int("max-report", 10, "print at most this many disagreeing samples")
	)
	fs.Parse(args)

	if *name == "" {
		fatal(fmt.Errorf("replay: -name is required (it selects vocabulary and baseline)"))
	}
	src, err := readRules(*rulesPath)
	if err != nil {
		fatal(err)
	}
	reg := rules.New(controller.RuleVocabulary)
	cand, err := reg.Validate(*name, src)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("candidate %s: %d rules, hash %.12s — valid\n", cand.Name, cand.Base.Len(), cand.Hash)

	defaults, err := parseInputs(fs.Args())
	if err != nil {
		fatal(err)
	}

	baseSrc, ok := controller.DefaultRuleSources()[*name]
	if *basePath != "" {
		baseSrc, err = readRules(*basePath)
		if err != nil {
			fatal(err)
		}
	} else if !ok {
		fatal(fmt.Errorf("replay: no built-in baseline for %q — pass -baseline", *name))
	}
	baseline, err := reg.Validate(*name, baseSrc)
	if err != nil {
		fatal(fmt.Errorf("baseline: %w", err))
	}

	if *archiveDir == "" {
		return
	}
	arch, err := archive.NewBacked(*archiveDir, 0, tsdb.Options{})
	if err != nil {
		fatal(err)
	}
	defer arch.Close()
	last, ok := arch.LastMinute()
	if !ok {
		fatal(fmt.Errorf("replay: archive %s holds no samples", *archiveDir))
	}
	if *to < 0 || *to > last {
		*to = last
	}

	entities := replayEntities(arch, *name)
	if len(entities) == 0 {
		fatal(fmt.Errorf("replay: archive %s holds no entities for rule base %q", *archiveDir, *name))
	}
	engine := fuzzy.NewEngine(fuzzy.LeftMax{})
	inputs := make(map[string]float64)
	vars := unionInputVars(baseline.Base, cand.Base)

	samples, diffs, reported := 0, 0, 0
	shifts := make(map[string]int)
	for _, entity := range entities {
		window, err := arch.Window(entity, *from, *to)
		if err != nil {
			fatal(err)
		}
		for _, s := range window {
			samples++
			for _, v := range vars {
				inputs[v] = defaults[v]
			}
			sampleInputs(inputs, entity, s.CPU, s.Mem)
			wasAct, was, err := winner(engine, baseline.Base, inputs)
			if err != nil {
				fatal(err)
			}
			nowAct, now, err := winner(engine, cand.Base, inputs)
			if err != nil {
				fatal(err)
			}
			if wasAct == nowAct {
				continue
			}
			diffs++
			shifts[wasAct+" -> "+nowAct]++
			if reported < *maxReport {
				fmt.Printf("  minute %4d %-14s cpu=%.2f mem=%.2f: baseline %s, candidate %s\n",
					s.Minute, entity, s.CPU, s.Mem, was, now)
				reported++
			}
		}
	}
	fmt.Printf("replayed %d samples over %d entities (minutes %d..%d): %d decisions differ\n",
		samples, len(entities), *from, *to, diffs)
	keys := make([]string, 0, len(shifts))
	for k := range shifts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %5d × %s\n", shifts[k], k)
	}
}

// replayEntities picks the archived entities whose load feeds the named
// rule base: service bases replay the per-service series, everything
// else (server bases and select/ bases, which score hosts) replays the
// per-host series.
func replayEntities(arch *archive.Archive, name string) []string {
	wantService := strings.HasPrefix(name, "service")
	var out []string
	for _, e := range arch.Entities() {
		isService := strings.HasPrefix(e, "svc/")
		isInstance := strings.HasPrefix(e, "inst/")
		if isInstance {
			continue
		}
		if isService == wantService {
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

// sampleInputs maps one archived sample onto the vocabulary: a host
// sample asserts the host load variables, a service sample the service
// load (and, as an approximation of a balanced service, the per-instance
// load). Everything else stays at its default.
func sampleInputs(inputs map[string]float64, entity string, cpu, mem float64) {
	if strings.HasPrefix(entity, "svc/") {
		if _, ok := inputs[controller.VarServiceLoad]; ok {
			inputs[controller.VarServiceLoad] = cpu
		}
		if _, ok := inputs[controller.VarInstanceLoad]; ok {
			inputs[controller.VarInstanceLoad] = cpu
		}
		return
	}
	if _, ok := inputs[controller.VarCPULoad]; ok {
		inputs[controller.VarCPULoad] = cpu
	}
	if _, ok := inputs[controller.VarMemLoad]; ok {
		inputs[controller.VarMemLoad] = mem
	}
}

// unionInputVars collects every input variable either base references,
// so the replay asserts a complete measurement set for both.
func unionInputVars(bases ...*fuzzy.RuleBase) []string {
	seen := make(map[string]bool)
	for _, rb := range bases {
		for _, r := range rb.Rules() {
			for v := range r.InputVars() {
				seen[v] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// winner reduces one inference to the comparable decision: the output
// variable with the highest applicability, "(none)" if nothing fired.
// Ties break lexicographically so the diff is deterministic. Returns
// the bare action (the identity compared and tallied) and a rendering
// with the applicability for the per-sample report.
func winner(engine *fuzzy.Engine, rb *fuzzy.RuleBase, inputs map[string]float64) (action, rendered string, err error) {
	res, err := engine.Infer(rb, inputs)
	if err != nil {
		return "", "", err
	}
	defer res.Release()
	best, bestVal := "(none)", 0.0
	names := make([]string, 0, len(res.Outputs))
	for n := range res.Outputs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if v := res.Outputs[n]; v > bestVal {
			best, bestVal = n, v
		}
	}
	if bestVal == 0 {
		return "(none)", "(none)", nil
	}
	return best, fmt.Sprintf("%s(%.2f)", best, bestVal), nil
}

// usageReplay is appended to the main usage text.
const usageReplay = `
subcommands:
  replay    validate a candidate rule file and diff it against a baseline
            over archived load (fuzzyc replay -h)
`

func init() {
	// Keep flag.Usage aware of the subcommand without restructuring the
	// single-command default path.
	prev := flag.Usage
	flag.Usage = func() {
		prev()
		fmt.Fprint(os.Stderr, usageReplay)
	}
}
