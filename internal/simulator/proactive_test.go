package simulator

import (
	"strings"
	"testing"

	"autoglobe/internal/archive"
	"autoglobe/internal/monitor"
	"autoglobe/internal/service"
	"autoglobe/internal/wire"
)

// TestArchiveBackedRunSurvivesCrash is the simulator-level acceptance
// test of the disk-backed archive: a full simulated day driven through
// the real control loop (monitors, controller actions, instance churn)
// into a backed archive, abandoned without Close — the crash — and then
// reopened by a second simulator over the same directory. Every
// entity's recovered DayProfile must be byte-identical: replay applies
// the same float operations in the same order the live run did.
func TestArchiveBackedRunSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	cfg := PaperConfig(service.FullMobility, 1.25)
	cfg.Hours = 25
	cfg.ArchiveDir = dir
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	arch := sim.Archive()
	if err := arch.KeepProfiles(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	entities := arch.Entities()
	if len(entities) == 0 {
		t.Fatal("run recorded no entities")
	}
	// Crash: no sim.Close(). Every minute was committed by Maintain.
	re, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer re.Close()
	rearch := re.Archive()
	if err := rearch.KeepProfiles(); err != nil {
		t.Fatal(err)
	}
	if got := rearch.Entities(); len(got) != len(entities) {
		t.Fatalf("recovered %d entities, want %d", len(got), len(entities))
	}
	for _, entity := range entities {
		instance := strings.HasPrefix(entity, archive.InstanceEntity(""))
		if got := rearch.Entity(entity).DaysObserved() > 0; got == instance {
			t.Fatalf("%s: has a recovered day profile: %v", entity, got)
		}
		before := arch.DayProfile(entity)
		after := rearch.DayProfile(entity)
		for m := range before {
			if before[m] != after[m] {
				t.Fatalf("%s: DayProfile[%d] diverges after crash recovery: %v != %v",
					entity, m, after[m], before[m])
			}
		}
		if arch.Entity(entity).Len() != rearch.Entity(entity).Len() {
			t.Fatalf("%s: ring length %d recovered, want %d",
				entity, rearch.Entity(entity).Len(), arch.Entity(entity).Len())
		}
	}
}

// TestBackedRunResumesClock pins the restart semantics of a backed
// run: the store's append rule is monotone per entity, so a run over a
// reopened archive must start past the restored high-water mark — not
// replay minute 0 over it and die on the first Record.
func TestBackedRunResumesClock(t *testing.T) {
	dir := t.TempDir()
	cfg := PaperConfig(service.FullMobility, 1.0)
	cfg.Hours = 2
	cfg.ArchiveDir = dir
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.StartMinute(); got != 0 {
		t.Fatalf("fresh archive starts at minute %d, want 0", got)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sim.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := New(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := re.StartMinute(); got != 120 {
		t.Fatalf("resumed run starts at minute %d, want 120", got)
	}
	if _, err := re.Run(); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	arch := re.Archive()
	last, ok := arch.LastMinute()
	if !ok || last != 239 {
		t.Fatalf("archive high-water mark %d (ok=%v) after resumed run, want 239", last, ok)
	}
}

// TestProactiveReducesSLAViolations is the ISSUE's headline experiment:
// with the forecast wired into the controller as a dedicated trigger
// path, the proactive runs must accumulate measurably fewer
// SLA-violation minutes (host minutes above the 80 % overload level)
// than the identical reactive runs. The landscape is chaotic — one
// action early in a run butterflies into a different trajectory — so
// the comparison runs the same three fixed seeds for both policies and
// compares per-seed and in aggregate. Everything is deterministic:
// this pins behaviour, not luck.
func TestProactiveReducesSLAViolations(t *testing.T) {
	const hours = 72
	violation := func(r *Result) int {
		total := 0
		for _, h := range r.Hosts {
			total += r.OverloadMinutes[h]
		}
		return total
	}
	var rv, pv, triggers int
	for _, seed := range []uint64{1, 7, 42} {
		reactive := run(t, service.FullMobility, 1.30, hours, func(c *Config) {
			c.Seed = seed
		})
		proactive := run(t, service.FullMobility, 1.30, hours, func(c *Config) {
			c.Seed = seed
			c.ForecastHorizon = 45
		})
		if proactive.ProactiveTriggers == 0 {
			t.Fatalf("seed %d: proactive run raised no forecast triggers", seed)
		}
		if got := proactive.TriggerCount[monitor.ServerForecastOverload] +
			proactive.TriggerCount[monitor.ServiceForecastOverload]; got != proactive.ProactiveTriggers {
			t.Fatalf("forecast trigger kinds count %d, ProactiveTriggers %d", got, proactive.ProactiveTriggers)
		}
		r, p := violation(reactive), violation(proactive)
		t.Logf("seed %2d: SLA-violation minutes reactive %4d, proactive %4d (%d forecast triggers)",
			seed, r, p, proactive.ProactiveTriggers)
		if p >= r {
			t.Errorf("seed %d: proactive should reduce SLA-violation minutes: reactive %d, proactive %d", seed, r, p)
		}
		rv, pv, triggers = rv+r, pv+p, triggers+proactive.ProactiveTriggers
	}
	t.Logf("total: reactive %d, proactive %d (%.0f%% reduction, %d forecast triggers)",
		rv, pv, 100*(1-float64(pv)/float64(rv)), triggers)
	if pv >= rv {
		t.Fatalf("proactive control should reduce aggregate SLA-violation minutes: reactive %d, proactive %d", rv, pv)
	}
}

// TestProactiveDistributedRuns: the forecast extension is no longer
// rejected in distributed mode — the predictor reads the coordinator's
// archive, which distributed heartbeats feed exactly like in-process
// observation does.
func TestProactiveDistributedRuns(t *testing.T) {
	cfg := PaperConfig(service.FullMobility, 1.30)
	cfg.Hours = 48
	cfg.ForecastHorizon = 45
	cfg.Distributed = &DistributedConfig{Transport: wire.NewLoopback()}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ProactiveTriggers == 0 {
		t.Fatal("distributed proactive run raised no forecast triggers")
	}
}
