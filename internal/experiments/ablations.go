package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"autoglobe/internal/controller"
	"autoglobe/internal/fuzzy"
	"autoglobe/internal/monitor"
	"autoglobe/internal/service"
	"autoglobe/internal/simulator"
)

// AblationRow is one variant of an ablation study.
type AblationRow struct {
	Variant     string
	WorstPerDay float64
	TotalPerDay float64
	Actions     int
	Alerts      int
}

// AblationResult compares variants of one design choice.
type AblationResult struct {
	Name string
	Rows []AblationRow
}

func (r AblationResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation: %s\n", r.Name)
	fmt.Fprintf(&sb, "  %-28s %14s %14s %8s %8s\n", "variant", "worst ovl/day", "total ovl/day", "actions", "alerts")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-28s %14.1f %14.1f %8d %8d\n",
			row.Variant, row.WorstPerDay, row.TotalPerDay, row.Actions, row.Alerts)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// ablate runs every variant of one design choice and tabulates the
// outcome. The variant runs are fully independent simulator runs, so
// they fan out across one worker per core (see parallel.go); rows are
// written into index-addressed slots, keeping the table byte-identical
// to the sequential loop regardless of scheduling.
func ablate(name string, hours int, variants []struct {
	label string
	tweak func(*simulator.Config)
}) (AblationResult, error) {
	res := AblationResult{Name: name}
	rows := make([]AblationRow, len(variants))
	err := forEachIndex(runtime.GOMAXPROCS(0), len(variants), func(i int) error {
		v := variants[i]
		cfg := simulator.PaperConfig(service.FullMobility, 1.25)
		cfg.Hours = hours
		v.tweak(&cfg)
		sim, err := simulator.New(cfg)
		if err != nil {
			return err
		}
		run, err := sim.Run()
		if err != nil {
			return err
		}
		_, worst := run.WorstOverloadPerDay()
		rows[i] = AblationRow{
			Variant:     v.label,
			WorstPerDay: worst,
			TotalPerDay: run.TotalOverloadPerDay(),
			Actions:     len(run.ExecutedActions()),
			Alerts:      run.Alerts(),
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	return res, nil
}

// AblateDefuzzifier compares the paper's leftmost-maximum
// defuzzification against mean-of-maximum and centroid.
func AblateDefuzzifier(hours int) (AblationResult, error) {
	return ablate("defuzzification method (FM, 125 % users)", hours, []struct {
		label string
		tweak func(*simulator.Config)
	}{
		{"leftmost-maximum (paper)", func(c *simulator.Config) {}},
		{"mean-of-maximum", func(c *simulator.Config) { c.Controller.Defuzzifier = fuzzy.MeanOfMax{} }},
		{"centroid", func(c *simulator.Config) { c.Controller.Defuzzifier = fuzzy.Centroid{} }},
	})
}

// AblateInference compares the paper's max–min inference against
// max–product.
func AblateInference(hours int) (AblationResult, error) {
	return ablate("inference method (FM, 125 % users)", hours, []struct {
		label string
		tweak func(*simulator.Config)
	}{
		{"max-min (paper)", func(c *simulator.Config) {}},
		{"max-product", func(c *simulator.Config) { c.Controller.Inference = fuzzy.MaxProduct }},
	})
}

// AblateWatchTime compares reacting immediately against the paper's
// 10-minute observation window — the guard against "an unsettled and
// instable system".
func AblateWatchTime(hours int) (AblationResult, error) {
	return ablate("overload watchTime (FM, 125 % users)", hours, []struct {
		label string
		tweak func(*simulator.Config)
	}{
		{"react immediately (0 min)", func(c *simulator.Config) { c.Monitor.OverloadWatch = 0 }},
		{"watch 10 min (paper)", func(c *simulator.Config) {}},
		{"watch 30 min", func(c *simulator.Config) { c.Monitor.OverloadWatch = 30 }},
	})
}

// AblateProtection compares protection times — the oscillation guard
// that "prevents the system from oscillation, e.g., moving services
// back and forth".
func AblateProtection(hours int) (AblationResult, error) {
	return ablate("protection time (FM, 125 % users)", hours, []struct {
		label string
		tweak func(*simulator.Config)
	}{
		{"no protection", func(c *simulator.Config) { c.Controller.ProtectionMinutes = -1 }},
		{"protect 30 min (paper)", func(c *simulator.Config) {}},
		{"protect 120 min", func(c *simulator.Config) { c.Controller.ProtectionMinutes = 120 }},
	})
}

// AblateForecast compares the reactive paper controller against the
// proactive forecast extension (Section 7 / [8]): pattern-based load
// prediction triggers the controller ahead of the morning ramp.
func AblateForecast(hours int) (AblationResult, error) {
	return ablate("proactive load forecasting (FM, 125 % users)", hours, []struct {
		label string
		tweak func(*simulator.Config)
	}{
		{"reactive (paper)", func(c *simulator.Config) {}},
		{"forecast 15 min ahead", func(c *simulator.Config) { c.ForecastHorizon = 15 }},
		{"forecast 45 min ahead", func(c *simulator.Config) { c.ForecastHorizon = 45 }},
	})
}

// CrispRules builds a naive threshold rule set — rectangular membership
// functions and single-condition rules — standing in for the
// "rule-based and not as flexible as our fuzzy controller" automation
// the paper's related-work section contrasts against.
func CrispRules() (map[monitor.TriggerKind]*fuzzy.RuleBase, map[service.Action]*fuzzy.RuleBase) {
	crispLoad := func(name string) *fuzzy.Variable {
		v := fuzzy.NewVariable(name, 0, 1)
		v.AddTerm("low", fuzzy.Rect(0, 0.3))
		v.AddTerm("medium", fuzzy.Rect(0.3, 0.7))
		v.AddTerm("high", fuzzy.Rect(0.7, 1))
		return v
	}
	vc := fuzzy.NewVocabulary()
	vc.Add(crispLoad(controller.VarCPULoad))
	vc.Add(crispLoad(controller.VarMemLoad))
	vc.Add(crispLoad(controller.VarInstanceLoad))
	vc.Add(crispLoad(controller.VarServiceLoad))
	pi := fuzzy.NewVariable(controller.VarPerformanceIndex, 0, 10)
	pi.AddTerm("low", fuzzy.Rect(0, 3))
	pi.AddTerm("medium", fuzzy.Rect(3, 6))
	pi.AddTerm("high", fuzzy.Rect(6, 10))
	vc.Add(pi)
	n := fuzzy.NewVariable(controller.VarInstancesOnServer, 0, 10)
	n.AddTerm("low", fuzzy.Rect(0, 2))
	n.AddTerm("medium", fuzzy.Rect(2, 4))
	n.AddTerm("high", fuzzy.Rect(4, 10))
	vc.Add(n)
	k := fuzzy.NewVariable(controller.VarInstancesOfService, 0, 20)
	k.AddTerm("few", fuzzy.Rect(0, 2))
	k.AddTerm("several", fuzzy.Rect(2, 5))
	k.AddTerm("many", fuzzy.Rect(5, 20))
	vc.Add(k)
	for _, a := range service.Actions() {
		vc.Add(fuzzy.Applicability(string(a)))
	}

	action := map[monitor.TriggerKind]*fuzzy.RuleBase{
		monitor.ServiceOverloaded: fuzzy.MustRuleBase("crisp/serviceOverloaded", vc, fuzzy.MustParse(`
			IF instanceLoad IS high THEN scaleOut IS applicable`)),
		monitor.ServiceIdle: fuzzy.MustRuleBase("crisp/serviceIdle", vc, fuzzy.MustParse(`
			IF serviceLoad IS low AND instancesOfService IS many THEN scaleIn IS applicable`)),
		monitor.ServerOverloaded: fuzzy.MustRuleBase("crisp/serverOverloaded", vc, fuzzy.MustParse(`
			IF cpuLoad IS high THEN scaleOut IS applicable`)),
		monitor.ServerIdle: fuzzy.MustRuleBase("crisp/serverIdle", vc, fuzzy.MustParse(`
			IF cpuLoad IS low AND instancesOfService IS many THEN scaleIn IS applicable`)),
	}

	svc := fuzzy.NewVocabulary()
	svc.Add(crispLoad(controller.VarCPULoad))
	svc.Add(fuzzy.Applicability(controller.VarScore))
	place := fuzzy.MustRuleBase("crisp/select", svc, fuzzy.MustParse(`
		IF cpuLoad IS low THEN score IS applicable
		IF cpuLoad IS medium THEN score IS applicable`))
	selection := map[service.Action]*fuzzy.RuleBase{
		service.ActionScaleOut:  place,
		service.ActionStart:     place,
		service.ActionScaleUp:   place,
		service.ActionScaleDown: place,
		service.ActionMove:      place,
	}
	return action, selection
}

// AblateCrispBaseline compares the fuzzy controller against the naive
// crisp threshold controller.
func AblateCrispBaseline(hours int) (AblationResult, error) {
	crispAction, crispSelect := CrispRules()
	return ablate("fuzzy controller vs crisp thresholds (FM, 125 % users)", hours, []struct {
		label string
		tweak func(*simulator.Config)
	}{
		{"fuzzy controller (paper)", func(c *simulator.Config) {}},
		{"crisp threshold controller", func(c *simulator.Config) {
			c.Controller.ActionRules = crispAction
			c.Controller.SelectionRules = crispSelect
		}},
		{"no controller", func(c *simulator.Config) { c.DisableController = true }},
	})
}
