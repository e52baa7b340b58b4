package experiments

import (
	"math"
	"strings"
	"testing"

	"autoglobe/internal/service"
)

func TestFigure3Checkpoint(t *testing.T) {
	r := Figure3(0.6)
	if math.Abs(r.Grades["medium"]-0.5) > 1e-6 || math.Abs(r.Grades["high"]-0.2) > 1e-6 {
		t.Errorf("Figure 3 checkpoint: got medium=%g high=%g, want 0.5/0.2",
			r.Grades["medium"], r.Grades["high"])
	}
	if !strings.Contains(r.String(), "0.50") {
		t.Errorf("rendering lost the checkpoint: %s", r)
	}
}

func TestFigure5Checkpoint(t *testing.T) {
	r, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Rule1Truth-0.6) > 1e-6 || math.Abs(r.Rule2Truth-0.3) > 1e-6 {
		t.Errorf("antecedent truths = %g/%g, want 0.6/0.3", r.Rule1Truth, r.Rule2Truth)
	}
	if math.Abs(r.ScaleUpCrisp-0.6) > 0.01 || math.Abs(r.ScaleOutCrisp-0.3) > 0.01 {
		t.Errorf("crisp outputs = %g/%g, want 0.6/0.3", r.ScaleUpCrisp, r.ScaleOutCrisp)
	}
	if r.PreferredAction != "scale-up" {
		t.Errorf("preferred action = %s, want scale-up", r.PreferredAction)
	}
}

func TestRuleBaseStats(t *testing.T) {
	st := RuleBases()
	if st.Total < 35 || st.Total > 60 {
		t.Errorf("total rules = %d, paper reports about 40", st.Total)
	}
	// The paper's four reactive situations plus the two forecast
	// (Section 7) trigger kinds.
	if len(st.PerTrigger) != 6 {
		t.Errorf("per-trigger rule bases = %d, want 6", len(st.PerTrigger))
	}
}

func TestFigure10(t *testing.T) {
	r := Figure10()
	if len(r.LES) != 24 || len(r.BW) != 24 {
		t.Fatalf("hourly samples = %d/%d, want 24 each", len(r.LES), len(r.BW))
	}
	if !(r.LES[10] > r.BW[10]) {
		t.Error("LES should dominate at 10:00")
	}
	if !(r.BW[2] > r.LES[2]) {
		t.Error("BW should dominate at 02:00")
	}
	if s := r.String(); !strings.Contains(s, "LES") || !strings.Contains(s, "BW") {
		t.Errorf("rendering incomplete: %s", s)
	}
}

func TestTable4(t *testing.T) {
	r, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		users float64
		inst  int
	}{
		"FI": {600, 3}, "LES": {900, 4}, "PP": {450, 2},
		"HR": {300, 1}, "CRM": {300, 1}, "BW": {60, 2},
	}
	for _, row := range r.Rows {
		w := want[row.Service]
		if row.Users != w.users || row.Instances != w.inst {
			t.Errorf("%s: %g users / %d instances, want %g / %d",
				row.Service, row.Users, row.Instances, w.users, w.inst)
		}
		// Interactive capacities exactly match the populations — the
		// hardware is scaled for peak load.
		if row.Service != "BW" && row.CapacityUsers != row.Users {
			t.Errorf("%s: capacity %g != users %g", row.Service, row.CapacityUsers, row.Users)
		}
	}
}

func TestConstraints(t *testing.T) {
	cm := Constraints(service.ConstrainedMobility)
	if !strings.Contains(cm.String(), "Table 5") {
		t.Error("CM constraints should render as Table 5")
	}
	if !strings.Contains(cm.String(), "exclusive") {
		t.Error("DB-ERP exclusivity missing from Table 5 rendering")
	}
	fm := Constraints(service.FullMobility)
	if !strings.Contains(fm.String(), "Table 6") {
		t.Error("FM constraints should render as Table 6")
	}
	if !strings.Contains(fm.String(), "move") {
		t.Error("move capability missing from Table 6 rendering")
	}
}

// TestTable7Quick runs a reduced sweep (one day, static only reaching
// its ceiling quickly) to exercise the sweep logic; the full 80-hour
// sweep is the BenchmarkTable07MaxUsers target.
func TestTable7Quick(t *testing.T) {
	r, err := Table7(Table7Options{Hours: 48, From: 100, To: 110})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.MaxUsers[service.Static]; got != 100 && got != 105 {
		t.Errorf("static ceiling (48 h sweep) = %d%%, want 100–105%%", got)
	}
	if r.MaxUsers[service.FullMobility] < r.MaxUsers[service.Static] {
		t.Error("full mobility must sustain at least as many users as static")
	}
	if len(r.Detail) == 0 {
		t.Fatal("no sweep detail recorded")
	}
	if s := r.String(); !strings.Contains(s, "Table 7") {
		t.Error("rendering incomplete")
	}
}

func TestScenarioFigureRendering(t *testing.T) {
	f, err := RunScenarioFigure("Figure 12", service.Static, true)
	if err != nil {
		t.Fatal(err)
	}
	s := f.String()
	if !strings.Contains(s, "Blade1") || !strings.Contains(s, "DBServer3") {
		t.Error("per-host table incomplete")
	}
	fi := f.FICurves()
	if !strings.Contains(fi, "FI@Blade3") {
		t.Errorf("FI curves missing: %s", fi)
	}
}

// TestAblationsSmoke exercises every ablation harness on short runs;
// the full 48-hour versions are benchmark targets.
func TestAblationsSmoke(t *testing.T) {
	type fn struct {
		name string
		run  func(int) (AblationResult, error)
		rows int
	}
	for _, f := range []fn{
		{"defuzzifier", AblateDefuzzifier, 3},
		{"inference", AblateInference, 2},
		{"watchTime", AblateWatchTime, 3},
		{"protection", AblateProtection, 3},
		{"forecast", AblateForecast, 3},
	} {
		r, err := f.run(6)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if len(r.Rows) != f.rows {
			t.Errorf("%s: %d rows, want %d", f.name, len(r.Rows), f.rows)
		}
		if s := r.String(); !strings.Contains(s, "Ablation") {
			t.Errorf("%s: rendering incomplete", f.name)
		}
	}
}

// TestTable7Stability exercises the multi-seed sweep with a reduced
// window.
func TestTable7StabilityQuick(t *testing.T) {
	r, err := Table7Stability([]uint64{1, 2}, Table7Options{Hours: 24, From: 100, To: 105})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Ceilings) != 2 {
		t.Fatalf("ceilings for %d seeds, want 2", len(r.Ceilings))
	}
	if !strings.Contains(r.String(), "seed") {
		t.Error("rendering incomplete")
	}
}

// TestCompareSLAQuick exercises the QoS comparison on a short run.
func TestCompareSLAQuick(t *testing.T) {
	r, err := CompareSLA(1.15, 0.30, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Reports) != 3 {
		t.Fatalf("reports for %d scenarios, want 3", len(r.Reports))
	}
	if s := r.String(); !strings.Contains(s, "SLA enforcement") {
		t.Error("rendering incomplete")
	}
	// A generous 30 % bound is met even statically on a short run? Not
	// necessarily — but the full-mobility controller must meet it.
	if !r.Reports[service.FullMobility].Met() {
		t.Errorf("full mobility broke a 30%% degradation bound:\n%s", r.Reports[service.FullMobility])
	}
}

// TestFigure16Story: the constrained-mobility run reproduces the
// narrative of Figure 16 — the controller starts additional FI
// instances on hosts outside FI's initial blades (the paper's "Out
// Blade6" / "Out DBServer3") and later stops drained or displaced ones
// ("In Blade5").
func TestFigure16Story(t *testing.T) {
	f, err := RunScenarioFigure("Figure 16", service.ConstrainedMobility, true)
	if err != nil {
		t.Fatal(err)
	}
	initial := map[string]bool{"Blade3": true, "Blade5": true, "Blade11": true}
	var outs, ins, outside int
	for _, e := range f.Result.ExecutedActions() {
		if e.Decision.Service != "FI" {
			continue
		}
		switch e.Decision.Action {
		case service.ActionScaleOut:
			outs++
			if !initial[e.Decision.TargetHost] {
				outside++
			}
		case service.ActionScaleIn:
			ins++
		}
	}
	if outs == 0 {
		t.Error("CM run executed no FI scale-outs")
	}
	if outside == 0 {
		t.Error("no FI scale-out targeted a host outside the initial blades")
	}
	if ins == 0 {
		t.Error("CM run executed no FI scale-ins")
	}
}

// TestFigure17Story: the full-mobility run additionally relocates FI
// instances (the paper's "Up …" / "Move …" annotations) and keeps FI's
// worst instance load below the static scenario's.
func TestFigure17Story(t *testing.T) {
	fm, err := RunScenarioFigure("Figure 17", service.FullMobility, true)
	if err != nil {
		t.Fatal(err)
	}
	reloc := 0
	for _, e := range fm.Result.ExecutedActions() {
		if e.Decision.Service != "FI" {
			continue
		}
		switch e.Decision.Action {
		case service.ActionMove, service.ActionScaleUp, service.ActionScaleDown:
			reloc++
		}
	}
	if reloc == 0 {
		t.Error("FM run relocated no FI instance (Figure 17 shows moves and scale-ups)")
	}
	worstFI := func(res *ScenarioFigure) float64 {
		var worst float64
		for _, pts := range res.Result.ServiceHostSeries {
			for _, p := range pts {
				if p.Load > worst {
					worst = p.Load
				}
			}
		}
		return worst
	}
	static, err := RunScenarioFigure("Figure 15", service.Static, true)
	if err != nil {
		t.Fatal(err)
	}
	if !(worstFI(fm) < worstFI(static)) {
		t.Errorf("FM worst FI load (%.2f) not below static (%.2f)", worstFI(fm), worstFI(static))
	}
}

func TestAblationCrispQuick(t *testing.T) {
	r, err := AblateCrispBaseline(24)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(r.Rows))
	}
	none := r.Rows[2]
	fuzzyRow := r.Rows[0]
	if !(fuzzyRow.TotalPerDay < none.TotalPerDay) {
		t.Errorf("fuzzy controller (%.0f) not better than no controller (%.0f)",
			fuzzyRow.TotalPerDay, none.TotalPerDay)
	}
}

// TestEngineAblationsGolden pins the two ablations that run the engine's
// other configurations — the defuzzifiers and inference methods that
// still materialise and scan an output set (the paper's row is computed
// in closed form since PR 23). The tables are the ones the PR 22 tree
// rendered: an engine change that moves a decision moves a number here.
func TestEngineAblationsGolden(t *testing.T) {
	const want = `Ablation: defuzzification method (FM, 125 % users)
  variant                       worst ovl/day  total ovl/day  actions   alerts
  leftmost-maximum (paper)               50.0          100.0       17        9
  mean-of-maximum                        30.0           65.0       18        9
  centroid                               30.0          115.0       20       16
Ablation: inference method (FM, 125 % users)
  variant                       worst ovl/day  total ovl/day  actions   alerts
  max-min (paper)                        50.0          100.0       17        9
  max-product                            99.0          463.0       28        8
`
	d, err := AblateDefuzzifier(24)
	if err != nil {
		t.Fatal(err)
	}
	i, err := AblateInference(24)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.String() + "\n" + i.String() + "\n"; got != want {
		t.Errorf("engine ablations moved:\n%s\nwant:\n%s", got, want)
	}
}
