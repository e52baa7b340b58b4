// Command autoglobe-sim runs the paper's SAP-installation simulation for
// one scenario and reports per-host load statistics, the controller's
// action log, and (optionally) full per-minute CSV time series for
// plotting the paper's figures.
//
// Usage:
//
//	autoglobe-sim -scenario fm -multiplier 1.15 -hours 80 -csv loads.csv
//	autoglobe-sim -scenario static -multiplier 1.10 -record FI
//	autoglobe-sim -table7
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"autoglobe/internal/experiments"
	"autoglobe/internal/service"
	"autoglobe/internal/simulator"
	"autoglobe/internal/spec"
)

func main() {
	var (
		scenario      = flag.String("scenario", "fm", "scenario: static, cm or fm")
		multiplier    = flag.Float64("multiplier", 1.15, "user population multiplier (1.0 = Table 4 baseline)")
		hours         = flag.Int("hours", 80, "simulated hours")
		seed          = flag.Uint64("seed", 1, "noise and failure seed")
		record        = flag.String("record", "", "comma-separated services whose per-host curves to print (e.g. FI)")
		csvPath       = flag.String("csv", "", "write per-minute host loads as CSV to this file")
		recordCSV     = flag.String("recordcsv", "", "with -record, write the per-service curves as CSV to this file")
		actions       = flag.Bool("actions", false, "print the full controller action log")
		failures      = flag.Float64("failures", 0, "injected instance crashes per simulated day")
		table7        = flag.Bool("table7", false, "run the full Table 7 sweep instead of a single scenario")
		landscape     = flag.String("landscape", "", "run a declarative XML landscape instead of the paper scenario")
		explain       = flag.Bool("explain", false, "with -actions, print the rules behind each decision")
		seeds         = flag.Int("seeds", 1, "with -table7, repeat the sweep for seeds 1..N")
		dumpLandscape = flag.Bool("dump-landscape", false, "print the paper scenario as declarative XML and exit")
	)
	flag.Parse()

	// Reject nonsensical parameters with a clear message before any
	// work starts — a zero-hour run would otherwise surface as a
	// confusing failure deep in the sweep engine.
	switch {
	case *hours <= 0:
		fatal(fmt.Errorf("-hours %d must be positive", *hours))
	case *multiplier <= 0:
		fatal(fmt.Errorf("-multiplier %g must be positive", *multiplier))
	case *failures < 0:
		fatal(fmt.Errorf("-failures %g must not be negative", *failures))
	case *seeds < 1:
		fatal(fmt.Errorf("-seeds %d must be at least 1", *seeds))
	case *explain && !*actions:
		fatal(fmt.Errorf("-explain requires -actions"))
	case *recordCSV != "" && *record == "":
		fatal(fmt.Errorf("-recordcsv requires -record"))
	case *landscape != "" && *table7:
		fatal(fmt.Errorf("-landscape and -table7 are mutually exclusive"))
	}

	if *dumpLandscape {
		m, err := service.ParseMobility(*scenario)
		if err != nil {
			fatal(err)
		}
		l, err := spec.Paper(m, *multiplier)
		if err != nil {
			fatal(err)
		}
		if err := l.Encode(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *table7 {
		for s := uint64(1); s <= uint64(*seeds); s++ {
			res, err := experiments.Table7(experiments.Table7Options{Hours: *hours, Seed: s})
			if err != nil {
				fatal(err)
			}
			if *seeds > 1 {
				fmt.Printf("--- seed %d ---\n", s)
			}
			fmt.Println(res)
		}
		return
	}

	var sim *simulator.Simulator
	if *landscape != "" {
		f, err := os.Open(*landscape)
		if err != nil {
			fatal(err)
		}
		l, err := spec.Parse(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		sim, err = simulator.FromLandscape(l)
		if err != nil {
			fatal(err)
		}
	} else {
		m, err := service.ParseMobility(*scenario)
		if err != nil {
			fatal(err)
		}
		cfg := simulator.PaperConfig(m, *multiplier)
		cfg.Hours = *hours
		cfg.Seed = *seed
		cfg.FailuresPerDay = *failures
		if *record != "" {
			cfg.RecordServices = strings.Split(*record, ",")
		}
		var err2 error
		sim, err2 = simulator.New(cfg)
		if err2 != nil {
			fatal(err2)
		}
	}
	res, err := sim.Run()
	if err != nil {
		fatal(err)
	}

	fmt.Println(res)
	fmt.Printf("\n%-12s %6s %6s %10s %10s\n", "host", "mean", "max", "ovl min", "max streak")
	for _, s := range res.Summaries() {
		fmt.Printf("%-12s %5.0f%% %5.0f%% %10d %10d\n",
			s.Host, s.Mean*100, s.Max*100, s.OverloadMinutes, s.MaxStreak)
	}
	counts := res.ActionCounts()
	if len(counts) > 0 {
		fmt.Println("\nexecuted controller actions:")
		for _, a := range service.Actions() {
			if counts[a] > 0 {
				fmt.Printf("  %-18s %d\n", a, counts[a])
			}
		}
	}
	if res.Restarts+res.FailedRestarts > 0 {
		fmt.Printf("\nself-healing: %d restarts, %d failed\n", res.Restarts, res.FailedRestarts)
	}
	overloaded := res.Overloaded(simulator.DefaultOverloadBudget, simulator.DefaultStreakBudget)
	fmt.Printf("\nverdict: installation %s the load (budget %d min/day, streak %d min)\n",
		map[bool]string{true: "CANNOT handle", false: "handles"}[overloaded],
		simulator.DefaultOverloadBudget, simulator.DefaultStreakBudget)

	if *actions {
		fmt.Println("\naction log:")
		for _, e := range res.Actions {
			switch {
			case e.Executed:
				fmt.Printf("  minute %5d  %s\n", e.Minute, e.Decision)
				if *explain {
					for _, fr := range e.Decision.Explanation {
						fmt.Printf("                 %.2f  %s\n", fr.Truth, fr.Rule)
					}
				}
			case e.Decision != nil:
				fmt.Printf("  minute %5d  %s  (%s)\n", e.Minute, e.Decision, e.Note)
			}
		}
	}
	for _, key := range res.SeriesKeys() {
		pts := res.ServiceHostSeries[key]
		var max float64
		for _, p := range pts {
			if p.Load > max {
				max = p.Load
			}
		}
		fmt.Printf("series %-16s %d samples, max %.0f%%\n", key, len(pts), max*100)
	}

	if *csvPath != "" {
		if err := writeCSV(*csvPath, res); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}
	if *recordCSV != "" {
		if err := writeSeriesCSV(*recordCSV, res); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *recordCSV)
	}
}

// writeSeriesCSV emits the recorded per-(service, host) load curves —
// the data behind Figures 15–17 — as minute, series, load rows.
func writeSeriesCSV(path string, res *simulator.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"minute", "series", "load"}); err != nil {
		return err
	}
	for _, key := range res.SeriesKeys() {
		for _, p := range res.ServiceHostSeries[key] {
			if err := w.Write([]string{
				strconv.Itoa(p.Minute), key, strconv.FormatFloat(p.Load, 'f', 4, 64),
			}); err != nil {
				return err
			}
		}
	}
	w.Flush()
	return w.Error()
}

// writeCSV emits minute, per-host loads, and the all-host average — the
// data behind Figures 12–14.
func writeCSV(path string, res *simulator.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	header := append([]string{"minute"}, res.Hosts...)
	header = append(header, "average")
	if err := w.Write(header); err != nil {
		return err
	}
	for m := 0; m < res.Minutes; m++ {
		row := make([]string, 0, len(res.Hosts)+2)
		row = append(row, strconv.Itoa(m))
		for _, h := range res.Hosts {
			series := res.HostLoad[h]
			if m < len(series) {
				row = append(row, strconv.FormatFloat(series[m], 'f', 4, 64))
			} else {
				row = append(row, "") // host left the pool
			}
		}
		row = append(row, strconv.FormatFloat(res.AvgLoad[m], 'f', 4, 64))
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "autoglobe-sim:", err)
	os.Exit(1)
}
