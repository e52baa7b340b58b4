package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"autoglobe/internal/service"
	"autoglobe/internal/simulator"
	"autoglobe/internal/sla"
)

// SLAComparison evaluates the same per-service degradation SLA against
// all three scenarios — the paper's closing QoS direction ("the actions
// will then be used to enforce Service Level Agreements") made
// measurable: what a 5 % degradation agreement costs under static
// allocation and what the controller buys.
type SLAComparison struct {
	Multiplier  float64
	MaxDegraded float64
	Reports     map[service.Mobility]*sla.Report
}

// CompareSLA runs the three scenarios at the multiplier and evaluates a
// uniform degradation SLA over every application service.
func CompareSLA(multiplier, maxDegraded float64, hours int) (*SLAComparison, error) {
	var agreements []sla.Agreement
	for _, svc := range service.AppServerNames() {
		agreements = append(agreements, sla.Agreement{Service: svc, MaxDegradedFraction: maxDegraded})
	}
	out := &SLAComparison{
		Multiplier: multiplier, MaxDegraded: maxDegraded,
		Reports: make(map[service.Mobility]*sla.Report),
	}
	// The three scenario runs are independent simulators; run them on
	// parallel workers (see parallel.go) and collect the reports into
	// index-addressed slots so the comparison is identical to the
	// sequential loop.
	scenarios := []service.Mobility{service.Static, service.ConstrainedMobility, service.FullMobility}
	reports := make([]*sla.Report, len(scenarios))
	err := forEachIndex(runtime.GOMAXPROCS(0), len(scenarios), func(i int) error {
		cfg := simulator.PaperConfig(scenarios[i], multiplier)
		cfg.Hours = hours
		sim, err := simulator.New(cfg)
		if err != nil {
			return err
		}
		res, err := sim.Run()
		if err != nil {
			return err
		}
		rep, err := sla.Evaluate(res, agreements)
		if err != nil {
			return err
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, m := range scenarios {
		out.Reports[m] = reports[i]
	}
	return out, nil
}

func (c *SLAComparison) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "SLA enforcement (§7 direction): %.0f%% max degraded user-minutes, users at %.0f%%\n",
		c.MaxDegraded*100, c.Multiplier*100)
	for _, m := range []service.Mobility{service.Static, service.ConstrainedMobility, service.FullMobility} {
		rep := c.Reports[m]
		verdict := "ALL MET"
		if !rep.Met() {
			verdict = "violated: " + strings.Join(rep.Violations(), ", ")
		}
		fmt.Fprintf(&sb, "  %-22s %s\n", m, verdict)
		for _, row := range rep.Rows {
			fmt.Fprintf(&sb, "      %-6s degraded %5.2f%%\n", row.Agreement.Service, row.DegradedFraction*100)
		}
	}
	return strings.TrimRight(sb.String(), "\n")
}
