package simulator

import (
	"math"
	"testing"

	"autoglobe/internal/service"
)

// run executes a scenario for the given hours at the given multiplier.
func run(t *testing.T, m service.Mobility, mult float64, hours int, tweak func(*Config)) *Result {
	t.Helper()
	cfg := PaperConfig(m, mult)
	cfg.Hours = hours
	if tweak != nil {
		tweak(&cfg)
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Multiplier: 0, Hours: 1},
		{Multiplier: 1, Hours: 0},
		{Multiplier: 1, Hours: 1, FluctuationPerHour: 2},
	}
	for i, cfg := range bad {
		cfg.Monitor = PaperConfig(service.Static, 1).Monitor
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestStaticBaselineHealthy: at the baseline population the statically
// allocated installation runs inside the 60–80 % band with essentially
// no overload — the hardware is "scaled for peak load".
func TestStaticBaselineHealthy(t *testing.T) {
	res := run(t, service.Static, 1.0, 48, nil)
	if res.Overloaded(DefaultOverloadBudget, DefaultStreakBudget) {
		t.Errorf("static baseline overloaded: %s", res)
	}
	if len(res.ExecutedActions()) != 0 {
		t.Errorf("static scenario executed %d actions; all services are static", len(res.ExecutedActions()))
	}
	// Peak utilization of the busiest blade is in (or near) the paper's
	// 60–80 % main-activity band.
	var peak float64
	for _, s := range res.Summaries() {
		if s.Max > peak {
			peak = s.Max
		}
	}
	if peak < 0.60 || peak > 0.85 {
		t.Errorf("busiest host peak = %.2f, want main-activity band ~0.6–0.8", peak)
	}
}

// TestStaticOverloadsWithMoreUsers: 10 % more users overload the static
// installation for long stretches (Figure 12's periodic plateaus).
func TestStaticOverloadsWithMoreUsers(t *testing.T) {
	res := run(t, service.Static, 1.10, 48, nil)
	if !res.Overloaded(DefaultOverloadBudget, DefaultStreakBudget) {
		t.Errorf("static at 110%% not overloaded: %s", res)
	}
	_, worst := res.WorstOverloadPerDay()
	if worst < 100 {
		t.Errorf("static at 110%%: worst host only %.0f overload min/day", worst)
	}
}

// TestControllerImprovesOverStatic reproduces the core qualitative claim
// of Figures 12–14: at +15 % users the constrained-mobility controller
// shortens overloads versus static, and full mobility practically
// eliminates them.
func TestControllerImprovesOverStatic(t *testing.T) {
	static := run(t, service.Static, 1.15, 80, nil)
	cm := run(t, service.ConstrainedMobility, 1.15, 80, nil)
	fm := run(t, service.FullMobility, 1.15, 80, nil)

	_, sW := static.WorstOverloadPerDay()
	_, cW := cm.WorstOverloadPerDay()
	_, fW := fm.WorstOverloadPerDay()
	if !(cW < sW) {
		t.Errorf("CM worst overload (%.0f/day) not below static (%.0f/day)", cW, sW)
	}
	if !(fW < sW/3) {
		t.Errorf("FM worst overload (%.0f/day) not far below static (%.0f/day)", fW, sW)
	}
	if static.TotalOverloadPerDay() < 5*fm.TotalOverloadPerDay() {
		t.Errorf("FM should cut total overload dramatically: static %.0f vs FM %.0f min/day",
			static.TotalOverloadPerDay(), fm.TotalOverloadPerDay())
	}
	if len(cm.ExecutedActions()) == 0 {
		t.Error("CM controller executed no actions at 115%")
	}
	if len(fm.ExecutedActions()) == 0 {
		t.Error("FM controller executed no actions at 115%")
	}
}

// TestCMOnlyUsesTable5Actions: in constrained mobility only scale-in and
// scale-out ever execute (Table 5).
func TestCMOnlyUsesTable5Actions(t *testing.T) {
	res := run(t, service.ConstrainedMobility, 1.20, 48, nil)
	for a := range res.ActionCounts() {
		if a != service.ActionScaleIn && a != service.ActionScaleOut {
			t.Errorf("CM executed %s; Table 5 allows only scale-in/scale-out", a)
		}
	}
}

// TestFMUsesRelocation: full mobility exercises the relocation actions
// (move / scale-up / scale-down) in addition to scaling (Figure 17).
func TestFMUsesRelocation(t *testing.T) {
	res := run(t, service.FullMobility, 1.30, 80, nil)
	counts := res.ActionCounts()
	reloc := counts[service.ActionMove] + counts[service.ActionScaleUp] + counts[service.ActionScaleDown]
	if reloc == 0 {
		t.Errorf("FM executed no relocation actions; counts = %v", counts)
	}
	if counts[service.ActionScaleOut] == 0 {
		t.Errorf("FM executed no scale-outs; counts = %v", counts)
	}
}

// TestInvariantsAfterLongRun: whatever the controller does, the
// deployment never violates a declared constraint, and no user is lost.
func TestInvariantsAfterLongRun(t *testing.T) {
	for _, m := range []service.Mobility{service.ConstrainedMobility, service.FullMobility} {
		cfg := PaperConfig(m, 1.30)
		cfg.Hours = 48
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]float64{}
		for _, svc := range sim.Deployment().Catalog().Names() {
			want[svc] = sim.Deployment().UsersOf(svc)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if err := sim.Deployment().Validate(); err != nil {
			t.Errorf("%v: deployment invalid after run: %v", m, err)
		}
		for svc, u := range want {
			got := sim.Deployment().UsersOf(svc)
			if math.Abs(got-u) > 1e-6*math.Max(1, u) {
				t.Errorf("%v: %s users changed from %g to %g", m, svc, u, got)
			}
		}
	}
}

// TestFailureInjectionSelfHealing: injected crashes are remedied with
// restarts and the landscape stays valid.
func TestFailureInjectionSelfHealing(t *testing.T) {
	res := run(t, service.FullMobility, 1.0, 48, func(c *Config) {
		c.FailuresPerDay = 48 // two crashes per simulated hour on average
	})
	if res.Restarts == 0 {
		t.Fatal("no self-healing restarts despite heavy failure injection")
	}
}

// TestFailureConservesUsers: crashed instances hand their sessions to
// the restarted replacement — no user is lost even under heavy failure
// injection.
func TestFailureConservesUsers(t *testing.T) {
	cfg := PaperConfig(service.FullMobility, 1.0)
	cfg.Hours = 36
	cfg.FailuresPerDay = 60
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for _, svc := range sim.Deployment().Catalog().Names() {
		want[svc] = sim.Deployment().UsersOf(svc)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts == 0 {
		t.Fatal("no restarts despite heavy failure injection")
	}
	lost := 0.0
	for svc, u := range want {
		lost += math.Abs(sim.Deployment().UsersOf(svc) - u)
	}
	// A failure whose restart could not happen (FailedRestarts) loses
	// its sessions legitimately; with a working landscape that should
	// not occur.
	if res.FailedRestarts == 0 && lost > 1e-6 {
		t.Errorf("users lost across failures: %.3f", lost)
	}
	if err := sim.Deployment().Validate(); err != nil {
		t.Errorf("deployment invalid after failures: %v", err)
	}
}

// TestEveryCrashIsDetected: a crashed instance falls silent, and once
// heartbeatTimeout minutes have passed the failure is remedied — the
// instance is restarted or the restart counted failed — however young
// the instance was when it crashed (started this minute, restarted the
// minute before, or at minute 0).
func TestEveryCrashIsDetected(t *testing.T) {
	if raceEnabled {
		t.Skip("80 simulated hours × 20 runs; the race pass adds nothing here")
	}
	for _, m := range []service.Mobility{service.ConstrainedMobility, service.FullMobility} {
		for seed := uint64(1); seed <= 10; seed++ {
			cfg := PaperConfig(m, 1.15)
			cfg.Seed = seed
			cfg.FailuresPerDay = 60
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			crashedAt := map[string]int{}
			late := 0
			for minute := 0; minute < cfg.Hours*60; minute++ {
				if err := sim.Step(minute); err != nil {
					t.Fatal(err)
				}
				for id := range sim.crashed {
					if _, ok := crashedAt[id]; !ok {
						crashedAt[id] = minute
					}
					if minute-crashedAt[id] == heartbeatTimeout {
						late++
					}
				}
			}
			if late > 0 {
				t.Errorf("%v seed %d: %d crashes still unremedied %d minutes after they happened", m, seed, late, heartbeatTimeout)
			}
			if remedied := sim.res.Restarts + sim.res.FailedRestarts; remedied+len(sim.crashed) != len(crashedAt) {
				t.Errorf("%v seed %d: %d crashes, %d remedied, %d pending", m, seed, len(crashedAt), remedied, len(sim.crashed))
			}
		}
	}
}

// TestRecordServices: requesting FI series yields FI@host curves, the
// data behind Figures 15–17.
func TestRecordServices(t *testing.T) {
	res := run(t, service.Static, 1.0, 24, func(c *Config) {
		c.RecordServices = []string{"FI"}
	})
	keys := res.SeriesKeys()
	if len(keys) != 3 {
		t.Fatalf("FI series keys = %v, want 3 (Blade3, Blade5, Blade11)", keys)
	}
	for _, k := range keys {
		pts := res.ServiceHostSeries[k]
		if len(pts) != 24*60 {
			t.Errorf("series %s has %d points, want %d", k, len(pts), 24*60)
		}
	}
}

// TestDeterminism: the same seed reproduces the identical run.
func TestDeterminism(t *testing.T) {
	a := run(t, service.FullMobility, 1.15, 24, nil)
	b := run(t, service.FullMobility, 1.15, 24, nil)
	if a.MeanLoad() != b.MeanLoad() {
		t.Errorf("same seed, different mean load: %g vs %g", a.MeanLoad(), b.MeanLoad())
	}
	if len(a.ExecutedActions()) != len(b.ExecutedActions()) {
		t.Errorf("same seed, different action counts: %d vs %d",
			len(a.ExecutedActions()), len(b.ExecutedActions()))
	}
	c := run(t, service.FullMobility, 1.15, 24, func(cfg *Config) { cfg.Seed = 99 })
	if a.MeanLoad() == c.MeanLoad() && len(a.ExecutedActions()) == len(c.ExecutedActions()) {
		t.Log("warning: different seeds produced identical runs (possible, but suspicious)")
	}
}

// TestDisableController: with the controller disabled, CM behaves like
// static (no actions), isolating the controller's contribution.
func TestDisableController(t *testing.T) {
	res := run(t, service.ConstrainedMobility, 1.15, 24, func(c *Config) {
		c.DisableController = true
	})
	if len(res.ExecutedActions()) != 0 {
		t.Errorf("disabled controller executed %d actions", len(res.ExecutedActions()))
	}
}

// TestDayNightLoadShape: the average load curve shows the diurnal
// pattern — busier during working hours than in the dead of night
// (before the BW batch window opens).
func TestDayNightLoadShape(t *testing.T) {
	res := run(t, service.Static, 1.0, 24, nil)
	// 10:00 (working peak) vs 07:00 (after batch, before work).
	if !(res.AvgLoad[10*60] > res.AvgLoad[7*60]) {
		t.Errorf("average load at 10:00 (%.2f) not above 07:00 (%.2f)",
			res.AvgLoad[10*60], res.AvgLoad[7*60])
	}
}

func TestResultAccessors(t *testing.T) {
	res := run(t, service.Static, 1.10, 24, nil)
	if got := res.Days(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("Days = %g, want 1", got)
	}
	if s := res.String(); s == "" {
		t.Error("empty result string")
	}
	sums := res.Summaries()
	if len(sums) != 19 {
		t.Fatalf("summaries for %d hosts, want 19", len(sums))
	}
	for _, s := range sums {
		if s.Mean < 0 || s.Mean > 1 || s.Max < s.Mean {
			t.Errorf("implausible summary %+v", s)
		}
	}
	if res.MeanLoad() <= 0 || res.MeanLoad() >= 1 {
		t.Errorf("mean load = %g", res.MeanLoad())
	}
}
