package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// suiteFile is what `suite` writes and `compare` reads: every run of
// every workload, under a header that says what was measured where.
type suiteFile struct {
	Header suiteHeader `json:"header"`
	Runs   []suiteRun  `json:"runs"`
}

type suiteHeader struct {
	Commit     string            `json:"commit"`
	Go         string            `json:"go"`
	NumCPU     int               `json:"nproc"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Reps       int               `json:"reps"`
	Sizes      map[string]string `json:"sizes"`
	// GoLOC is the repository's non-test Go line count outside bench/:
	// the design weight the numbers were bought with.
	GoLOC int `json:"go_loc"`
}

type suiteRun struct {
	Workload string             `json:"workload"`
	Trace    int                `json:"trace"`
	Rep      int                `json:"rep"`
	Correct  bool               `json:"correct"`
	Metrics  map[string]float64 `json:"metrics"`
}

// sizes renders a workload's final sizes for the header.
func (w *workload) sizes() string {
	if len(w.parts) == 0 {
		return "simulator.PaperConfig(FullMobility, 1.15), 24 h in-process, one day per round"
	}
	var parts []string
	for _, p := range w.parts {
		s := fmt.Sprintf("%d cells = %d hosts, x%.2f, %d+%d min from minute %d, %d set-ups", p.cells, p.hosts(), p.multiplier, p.warmup, p.minutes, p.start, w.setups)
		if p.http {
			s += ", HTTP"
		}
		if p.forecast > 0 {
			s += fmt.Sprintf(", forecast %d", p.forecast)
		}
		if p.standbys > 0 {
			s += fmt.Sprintf(", %d standbys, kill every ~%d min", p.standbys, p.killEvery)
		}
		if p.crashEvery > 0 {
			s += fmt.Sprintf(", restart every ~%d min, %d cold starts", p.crashEvery, p.coldStarts)
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, "; ")
}

// goLOC counts the lines of the non-test Go files under root, leaving out
// the benchmark itself and anything hidden.
func goLOC(root string) int {
	n := 0
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			if b, err := os.ReadFile(path); err == nil {
				n += bytes.Count(b, []byte{'\n'})
			}
		}
		return nil
	})
	return n
}

// suiteMain runs every workload reps times, untraced and traced, each run
// in a process of its own (fresh state, and exactly what the driver
// measures), writes the results to -o and prints median and min–max per
// end-to-end metric.
func suiteMain(args []string) int {
	fl := flag.NewFlagSet("suite", flag.ExitOnError)
	reps := fl.Int("reps", 3, "runs per workload and mode")
	seed := fl.Uint64("seed", 1, "workload seed")
	outPath := fl.String("o", "", "write the suite file here (default: standard output only)")
	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	seconds := fl.Float64("seconds", float64(spec.RunSeconds), "measuring time per run")
	fl.Parse(args)
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	file := suiteFile{Header: suiteHeader{
		Commit: commit, Go: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed: *seed, Seconds: *seconds, Reps: *reps, Sizes: make(map[string]string), GoLOC: goLOC("."),
	}}
	for _, w := range workloads {
		file.Header.Sizes[w.name] = w.sizes()
		for rep := 1; rep <= *reps; rep++ {
			for trace := 0; trace <= 1; trace++ {
				cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(*seed),
					"--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(trace))
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
				var out output
				if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &out); jerr != nil {
					fatal(fmt.Errorf("%s rep %d trace %d: %v (%v)", w.name, rep, trace, jerr, err))
				}
				run := suiteRun{Workload: w.name, Trace: trace, Rep: rep, Correct: out.Correct, Metrics: make(map[string]float64)}
				for name, m := range out.Metrics {
					run.Metrics[name] = m.Value
				}
				file.Runs = append(file.Runs, run)
			}
		}
	}
	if *outPath != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*outPath, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	file.print(spec)
	for _, r := range file.Runs {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

func (h suiteHeader) String() string {
	return fmt.Sprintf("commit %s  %s  nproc %d  GOMAXPROCS %d  seed %d  %gs x %d reps  %d non-test Go lines",
		h.Commit, h.Go, h.NumCPU, h.GoMaxProcs, h.Seed, h.Seconds, h.Reps, h.GoLOC)
}

// values returns a metric's values over the reps of one workload.
func (f *suiteFile) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if x, ok := r.Metrics[metric]; ok && r.Workload == workload {
			v = append(v, x)
		}
	}
	sort.Float64s(v)
	return v
}

func (f *suiteFile) workloads() []string {
	var names []string
	for _, w := range workloads {
		if _, ok := f.Header.Sizes[w.name]; ok {
			names = append(names, w.name)
		}
	}
	return names
}

func (f *suiteFile) print(spec *benchSpec) {
	fmt.Println(f.Header)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tmin\tmax")
	for _, w := range f.workloads() {
		fmt.Fprintf(tw, "%s\t(%s)\n", w, f.Header.Sizes[w])
		for _, m := range spec.EndToEnd {
			if v := f.values(w, m.Name); len(v) > 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\n", w, m.Name, m.Unit, medianF(v), v[0], v[len(v)-1])
			}
		}
	}
	tw.Flush()
}

// compareMain applies every end-to-end metric's bound to two suite files
// (a: the parent, b: the change) and prints one row per workload and
// metric: same, worse or better by more than the bound, or unresolved
// when either side's own min–max spread exceeds the bound. Per-layer
// metrics follow without a verdict, except the exact counts, which must
// be bit-equal. The exit code is 1 when any row is worse or differs.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare a.json b.json")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	var files [2]suiteFile
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(b, &files[i]); err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		fmt.Printf("%s: %s\n", path, files[i].Header)
	}
	a, b := &files[0], &files[1]
	exact := map[string]bool{"wire_calls_per_minute": true, "wire_bytes_per_minute": true,
		"disk_bytes_per_minute": true, "failed_share": true}
	bad := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median\tb median\tchange\tverdict")
	for _, w := range a.workloads() {
		for _, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			for _, m := range list {
				va, vb := a.values(w, m.Name), b.values(w, m.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				ma, mb := medianF(va), medianF(vb)
				change := ratio(mb-ma, ma)
				verdict := ""
				switch {
				case m.Bound > 0:
					worse := change
					if m.Better == "higher" {
						worse = -change
					}
					spread := max(ratio(va[len(va)-1]-va[0], ma), ratio(vb[len(vb)-1]-vb[0], mb))
					switch {
					case spread > m.Bound:
						verdict = fmt.Sprintf("unresolved (spread %.0f%% > bound %.0f%%)", 100*spread, 100*m.Bound)
					case worse > m.Bound:
						verdict = "worse"
						bad++
					case worse < -m.Bound:
						verdict = "better"
					default:
						verdict = "same"
					}
				case exact[m.Name]:
					verdict = "same"
					if ma != mb {
						verdict = "differs"
						bad++
					}
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%+.1f%%\t%s\n", w, m.Name, m.Unit, ma, mb, 100*change, verdict)
			}
		}
	}
	tw.Flush()
	if bad > 0 {
		return 1
	}
	return 0
}
