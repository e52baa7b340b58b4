// Command autoglobe-console runs a scenario and renders the controller
// console of the paper's Figure 8: server view, service view and
// message view, optionally at several checkpoints during the run.
//
// Usage:
//
//	autoglobe-console -scenario fm -multiplier 1.15 -hours 48
//	autoglobe-console -scenario cm -checkpoints 4 -messages 30
package main

import (
	"flag"
	"fmt"
	"os"

	"autoglobe/internal/console"
	"autoglobe/internal/service"
	"autoglobe/internal/simulator"
)

func main() {
	var (
		scenario    = flag.String("scenario", "fm", "scenario: static, cm or fm")
		multiplier  = flag.Float64("multiplier", 1.15, "user population multiplier")
		hours       = flag.Int("hours", 24, "simulated hours")
		checkpoints = flag.Int("checkpoints", 1, "number of console snapshots during the run")
		messages    = flag.Int("messages", 20, "messages to show in the message view")
		detail      = flag.String("detail", "", "also render the detail panel for this server")
	)
	flag.Parse()

	m, err := service.ParseMobility(*scenario)
	if err != nil {
		fatal(err)
	}
	cfg := simulator.PaperConfig(m, *multiplier)
	cfg.Hours = *hours
	sim, err := simulator.New(cfg)
	if err != nil {
		fatal(err)
	}

	if *detail != "" {
		// The detail panel's day profile covers the whole run, history
		// the archive compacts behind its retention included.
		if err := sim.Archive().KeepProfiles(); err != nil {
			fatal(err)
		}
	}

	total := *hours * 60
	every := total
	if *checkpoints > 1 {
		every = total / *checkpoints
	}
	for minute := 0; minute < total; minute++ {
		if err := sim.Step(minute); err != nil {
			fatal(err)
		}
		if (minute+1)%every == 0 || minute == total-1 {
			fmt.Printf("=== %s scenario, %.0f%% users — minute %d (day %d, %02d:%02d) ===\n",
				m, *multiplier*100, minute, minute/1440+1, (minute/60)%24, minute%60)
			fmt.Println(console.ServerView(sim.Deployment(), sim.Archive()))
			fmt.Println()
			fmt.Println(console.ServiceView(sim.Deployment(), sim.Archive()))
			fmt.Println()
			fmt.Println(console.MessageView(sim.Controller().Events(), *messages))
			if *detail != "" {
				fmt.Println()
				fmt.Println(console.ServerDetail(sim.Deployment(), sim.Archive(), *detail, minute))
			}
			fmt.Println()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "autoglobe-console:", err)
	os.Exit(1)
}
