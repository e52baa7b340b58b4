package simulator

import (
	"runtime"
	"runtime/debug"
	"testing"

	"autoglobe/internal/service"
)

// TestSimulatorStepAllocs pins, exactly, what a warm full-mobility
// minute at 1.15× users allocates: minutes 361–600 (the morning login
// wave included) of a 24 h day. The landscape is read through the
// simulator's slots, the run's rows are reserved at its first minute,
// triggers travel by value and explanations name rules by id, so what
// is left is what the run keeps: the memory store's sealed blocks and
// their index (257 of the 454), the archive and monitor entries of
// instances started in the window, and the controller's candidates,
// decisions, events and executed model changes. The window read 810–870
// allocations before those changes, about 3 a minute.
//
// The count is read the same in every run because the scheduling noise
// is pinned: one P, so what a sync.Pool hands out does not depend on
// which P ran the last Put; no collection from two forced ones before
// the measured run to the end of the window, so every pool starts the
// run empty and none is drained mid-window; and a warm-up run first, so
// a process-wide memo (a rule base's binder) is not charged to the
// window. Without those, one build read 471–525 here. The window also
// formats nothing through an interface type assertion, whose runtime
// cache grows at random moments (see monitor.Trigger.String).
func TestSimulatorStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const want = 454
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := PaperConfig(service.FullMobility, 1.15)
	cfg.Hours = 24
	var before, after runtime.MemStats
	for run := 0; run < 2; run++ { // the warm-up, then the measured run
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if run == 1 {
			runtime.GC()
			runtime.GC()
			runtime.Gosched() // what the collections woke runs now, not in the window
		}
		for minute := 0; minute <= 600; minute++ {
			if minute == 361 {
				runtime.ReadMemStats(&before)
			}
			if err := sim.Step(minute); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
	}
	if got := after.Mallocs - before.Mallocs; got != want {
		t.Errorf("minutes 361–600 allocate %d times, want exactly %d", got, want)
	}
}
