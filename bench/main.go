// Command bench is the repository's end-to-end benchmark: one
// control-plane minute loop, built only from public functions in the
// order cmd/autoglobe-agentd's coordinator loop calls them, driven over a
// real agent.Plane by a seeded load model. See README.md beside this file
// for the workloads, the metrics and how to read them.
//
//	bash bench/run.sh --workload fleet-steady --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh suite -reps 3 -o a.json
//	bash bench/run.sh compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// scratchDir holds the journals and stores of the rounds in flight,
// inside the checkout; traceDir receives the traced run's span files.
const (
	scratchDir = ".bench_build/scratch"
	traceDir   = "bench/out"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the object a run prints as its last line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "suite":
			os.Exit(suiteMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Uint64("seed", 1, "seed of the landscape's phase shifts, the load jitter and the fault schedule")
	seconds := flag.Float64("seconds", 10, "how long to keep starting measured rounds")
	trace := flag.Int("trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
	cells := flag.Int("cells", 0, "resize every fleet to this many cells of 19 hosts (scaling studies; 0: the workload's own size)")
	flag.Parse()

	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *cells > 0 {
		n := *cells
		w = w.resized(func(p *part) { p.cells = n })
	}
	res, err := w.run(*seed, *seconds, *trace == 1, scratchDir, traceDir)
	if err != nil {
		fatal(err)
	}
	out := res.output(*trace == 1)
	if err := spec.check(out, *trace == 1); err != nil {
		fatal(err)
	}
	st := res.st
	fmt.Fprintf(os.Stderr, "%s seed=%d trace=%d gomaxprocs=%d nproc=%d rounds=%d minutes=%d triggers=%d executed=%d takeovers=%d restarts=%d digest=%x\n",
		w.name, *seed, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), st.rounds, st.minutes,
		st.triggers+st.forecasts, st.executed, len(st.takeoverNs), len(st.restartNs), res.digest[:8])
	for _, f := range st.failures {
		fmt.Fprintln(os.Stderr, "FAILED:", f)
	}
	if res.traceOut != "" {
		fmt.Fprintln(os.Stderr, "trace:", res.traceOut)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
