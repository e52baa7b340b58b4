package simulator

import (
	"testing"

	"autoglobe/internal/service"
)

// TestSimulatorStepAllocs guards the minute against allocation creeping
// back: the landscape is read through the simulator's host, service and
// instance slots and the deployment's shared snapshots, so a warm
// full-mobility minute at 1.15× users allocates only where the run's own
// record grows — the result series, the archive, the monitor's triggers
// and the controller's decisions. Minutes 361–600 (the morning login
// wave included) measure 3 allocations a minute; with name-keyed maps
// and copied name lists in their place they measured 9, and the reads
// that rebuilt the landscape cost about 280.
func TestSimulatorStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const bound = 3
	cfg := PaperConfig(service.FullMobility, 1.15)
	cfg.Hours = 24
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	minute := 0
	step := func() {
		if err := sim.Step(minute); err != nil {
			t.Fatal(err)
		}
		minute++
	}
	for minute < 360 {
		step()
	}
	if got := testing.AllocsPerRun(240, step); got > bound {
		t.Errorf("a warm minute allocates %.0f times, want at most %d", got, bound)
	}
}
