package monitor

import (
	"math"
	"testing"

	"autoglobe/internal/obs"
)

func newSystem(t *testing.T, p Params) *System {
	t.Helper()
	s, err := NewSystem(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParamsValidate(t *testing.T) {
	if err := PaperParams().Validate(); err != nil {
		t.Errorf("paper params invalid: %v", err)
	}
	bad := []Params{
		{OverloadThreshold: 0},
		{OverloadThreshold: 1.5},
		{OverloadThreshold: 0.7, OverloadWatch: -1},
		{OverloadThreshold: 0.7, IdleThresholdBase: -0.1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

// TestPaperParams checks the Section 5.1 tunables: CPU overload 70 %,
// overload watchTime 10 min, idle threshold 12.5 %/performanceIndex,
// idle watchTime 20 min.
func TestPaperParams(t *testing.T) {
	p := PaperParams()
	if p.OverloadThreshold != 0.70 || p.OverloadWatch != 10 || p.IdleWatch != 20 {
		t.Errorf("paper params = %+v", p)
	}
	if got := p.IdleThreshold(1); math.Abs(got-0.125) > 1e-9 {
		t.Errorf("idle threshold PI 1 = %g, want 0.125", got)
	}
	if got := p.IdleThreshold(2); math.Abs(got-0.0625) > 1e-9 {
		t.Errorf("idle threshold PI 2 = %g, want 0.0625", got)
	}
	if got := p.IdleThreshold(0); math.Abs(got-0.125) > 1e-9 {
		t.Errorf("idle threshold PI 0 must fall back to base, got %g", got)
	}
}

func TestObserveUnregistered(t *testing.T) {
	s := newSystem(t, PaperParams())
	if _, err := s.Observe("ghost", 0, 0.5, 0.5); err == nil {
		t.Fatal("unregistered entity accepted")
	}
}

// TestShortPeakFiltered: a load spike shorter than the watch time with a
// low watch-window average must NOT trigger — this is the core purpose
// of the load monitoring system.
func TestShortPeakFiltered(t *testing.T) {
	s := newSystem(t, PaperParams())
	s.Register("Blade1", Server, 1)
	// One spike minute, then calm.
	if tr, err := s.Observe("Blade1", 0, 0.95, 0.3); err != nil || tr != nil {
		t.Fatalf("spike minute: trigger=%v err=%v", tr, err)
	}
	if !s.Watching("Blade1") {
		t.Fatal("spike did not start observation")
	}
	for m := 1; m <= 10; m++ {
		tr, err := s.Observe("Blade1", m, 0.30, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			t.Fatalf("short peak confirmed as overload: %v", tr)
		}
	}
	if s.Watching("Blade1") {
		t.Error("watch not reset after benign observation window")
	}
}

// TestSustainedOverloadTriggers: load persistently above 70 % confirms a
// serverOverloaded trigger after the 10-minute watch time, with the
// watch-window average reported.
func TestSustainedOverloadTriggers(t *testing.T) {
	s := newSystem(t, PaperParams())
	s.Register("Blade1", Server, 1)
	var got *Trigger
	for m := 0; m <= 10; m++ {
		tr, err := s.Observe("Blade1", m, 0.85, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			got = tr
			if m != 10 {
				t.Errorf("trigger confirmed at minute %d, want 10", m)
			}
		}
	}
	if got == nil {
		t.Fatal("sustained overload did not trigger")
	}
	if got.Kind != ServerOverloaded {
		t.Errorf("kind = %s, want serverOverloaded", got.Kind)
	}
	if math.Abs(got.AvgLoad-0.85) > 1e-9 {
		t.Errorf("avg = %g, want 0.85", got.AvgLoad)
	}
	if got.WatchedFrom != 0 || got.Minute != 10 {
		t.Errorf("watch window = [%d, %d], want [0, 10]", got.WatchedFrom, got.Minute)
	}
}

func TestServiceOverloadKind(t *testing.T) {
	s := newSystem(t, PaperParams())
	s.Register("FI", Service, 1)
	var got *Trigger
	for m := 0; m <= 10; m++ {
		tr, err := s.Observe("FI", m, 0.9, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			got = tr
		}
	}
	if got == nil || got.Kind != ServiceOverloaded {
		t.Fatalf("trigger = %v, want serviceOverloaded", got)
	}
}

// TestIdleTriggers: sustained load below 12.5 %/PI confirms an idle
// trigger after 20 minutes; the threshold scales with performance index.
func TestIdleTriggers(t *testing.T) {
	s := newSystem(t, PaperParams())
	s.Register("Blade9", Server, 2) // idle threshold 0.0625
	var got *Trigger
	for m := 0; m <= 20; m++ {
		tr, err := s.Observe("Blade9", m, 0.05, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			got = tr
		}
	}
	if got == nil || got.Kind != ServerIdle {
		t.Fatalf("trigger = %v, want serverIdle", got)
	}

	// Load of 0.10 is idle for PI 1 (< 0.125) but NOT for PI 2 hosts.
	s2 := newSystem(t, PaperParams())
	s2.Register("BigHost", Server, 2)
	for m := 0; m <= 25; m++ {
		tr, err := s2.Observe("BigHost", m, 0.10, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			t.Fatalf("PI-2 host at 0.10 load triggered idle: %v", tr)
		}
	}
}

func TestIdleWatchAbortsOnRecovery(t *testing.T) {
	s := newSystem(t, PaperParams())
	s.Register("Blade1", Server, 1)
	if _, err := s.Observe("Blade1", 0, 0.01, 0); err != nil {
		t.Fatal(err)
	}
	// Load recovers: the average over the idle watch exceeds the
	// threshold, so no trigger.
	for m := 1; m <= 20; m++ {
		tr, err := s.Observe("Blade1", m, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			t.Fatalf("recovered load triggered idle: %v", tr)
		}
	}
}

func TestWatchRestartsAfterTrigger(t *testing.T) {
	s := newSystem(t, PaperParams())
	s.Register("Blade1", Server, 1)
	triggers := 0
	for m := 0; m <= 42; m++ {
		tr, err := s.Observe("Blade1", m, 0.9, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			triggers++
		}
	}
	// 43 samples: trigger at minute 10, re-arm at 11, trigger at 21, etc.
	if triggers < 2 {
		t.Errorf("persistent overload produced %d triggers, want repeated confirmation", triggers)
	}
}

func TestZeroWatchTimeTriggersImmediately(t *testing.T) {
	p := PaperParams()
	p.OverloadWatch = 0
	s := newSystem(t, p)
	s.Register("Blade1", Server, 1)
	tr, err := s.Observe("Blade1", 0, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil || tr.Kind != ServerOverloaded {
		t.Fatalf("zero watch time: trigger = %v", tr)
	}
}

func TestObserveRecordsToArchive(t *testing.T) {
	s := newSystem(t, PaperParams())
	s.Register("Blade1", Server, 1)
	for m := 0; m < 5; m++ {
		if _, err := s.Observe("Blade1", m, 0.42, 0.24); err != nil {
			t.Fatal(err)
		}
	}
	avg, ok, _ := s.Archive().AverageCPU("Blade1", 0, 4)
	if !ok || math.Abs(avg-0.42) > 1e-9 {
		t.Errorf("archive average = %g, want 0.42", avg)
	}
}

func TestDeregister(t *testing.T) {
	s := newSystem(t, PaperParams())
	s.Register("FI", Service, 1)
	s.Deregister("FI")
	if _, err := s.Observe("FI", 0, 0.9, 0); err == nil {
		t.Error("deregistered entity accepted")
	}
}

// TestMemoryOverloadWatch: with the optional memory threshold enabled,
// sustained memory pressure confirms an overload trigger tagged with
// the memory resource, while CPU stays calm.
func TestMemoryOverloadWatch(t *testing.T) {
	p := PaperParams()
	p.MemOverloadThreshold = 0.9
	s := newSystem(t, p)
	s.Register("Blade1", Server, 1)
	var got *Trigger
	for m := 0; m <= 10; m++ {
		tr, err := s.Observe("Blade1", m, 0.4, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			got = tr
		}
	}
	if got == nil {
		t.Fatal("sustained memory overload did not trigger")
	}
	if got.Kind != ServerOverloaded || got.Resource != "memory" {
		t.Errorf("trigger = %+v, want serverOverloaded/memory", got)
	}
}

// TestCPUConfirmationSupersedesMemory: a host past both thresholds opens
// its CPU and memory watches in the same minute, so they confirm, close
// and reopen in lockstep. Each time the CPU trigger replaces the memory
// one, which never shows while the CPU overload lasts: the triggers of
// minutes 10 and 21 are both CPU-tagged, and each memory confirmation
// is still counted.
func TestCPUConfirmationSupersedesMemory(t *testing.T) {
	p := PaperParams()
	p.MemOverloadThreshold = 0.9
	s := newSystem(t, p)
	r := obs.NewRegistry()
	s.Instrument(r)
	h := s.Register("Blade1", Server, 1)
	var trs []Trigger
	for m := 0; m <= 31; m++ {
		var err error
		if trs, err = s.ObserveWatch(trs, h, m, 0.95, 0.95); err != nil {
			t.Fatal(err)
		}
	}
	if len(trs) != 2 {
		t.Fatalf("triggers %+v, want two", trs)
	}
	for i, m := range []int{10, 21} {
		if tr := trs[i]; tr.Minute != m || tr.WatchedFrom != m-10 || tr.Kind != ServerOverloaded || tr.Resource != "" {
			t.Errorf("trigger %d = %+v, want a CPU serverOverloaded at minute %d", i, tr, m)
		}
	}
	snap := r.Snapshot()
	for phase, want := range map[string]float64{"observed": 6, "confirmed": 4, "expired": 0} {
		if got := snap[`autoglobe_monitor_watches_total{phase="`+phase+`"}`]; got != want {
			t.Errorf("%s watches = %v, want %v", phase, got, want)
		}
	}
}

// TestMemoryWatchDisabledByDefault: the paper parameters watch CPU only.
func TestMemoryWatchDisabledByDefault(t *testing.T) {
	s := newSystem(t, PaperParams())
	s.Register("Blade1", Server, 1)
	for m := 0; m <= 15; m++ {
		tr, err := s.Observe("Blade1", m, 0.4, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			t.Fatalf("memory trigger fired with watching disabled: %v", tr)
		}
	}
}

// TestMemorySpikeFiltered: the watch time filters short memory spikes
// just like CPU ones.
func TestMemorySpikeFiltered(t *testing.T) {
	p := PaperParams()
	p.MemOverloadThreshold = 0.9
	s := newSystem(t, p)
	s.Register("FI", Service, 1)
	if tr, _ := s.Observe("FI", 0, 0.4, 0.95); tr != nil {
		t.Fatal("immediate trigger")
	}
	for m := 1; m <= 12; m++ {
		tr, err := s.Observe("FI", m, 0.4, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			t.Fatalf("short memory spike confirmed: %v", tr)
		}
	}
}

func TestMemoryThresholdValidation(t *testing.T) {
	p := PaperParams()
	p.MemOverloadThreshold = 1.5
	if err := p.Validate(); err == nil {
		t.Fatal("invalid memory threshold accepted")
	}
}

func TestTriggerString(t *testing.T) {
	tr := Trigger{Kind: ServerOverloaded, Entity: "Blade1", Minute: 10, AvgLoad: 0.85}
	if s := tr.String(); s == "" {
		t.Error("empty trigger string")
	}
}

// TestMonitorWatchMetrics counts observed / expired / confirmed watches
// through the System state machine.
func TestMonitorWatchMetrics(t *testing.T) {
	r := obs.NewRegistry()
	s, err := NewSystem(Params{
		OverloadThreshold: 0.7, OverloadWatch: 2,
		IdleThresholdBase: 0.125, IdleWatch: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Instrument(r)
	s.Register("h1", Server, 1)

	// Short peak: watch opens at minute 0, recedes by minute 2 → expired.
	feed := func(minute int, cpu float64) *Trigger {
		t.Helper()
		tr, err := s.Observe("h1", minute, cpu, 0)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	feed(0, 0.9)
	feed(1, 0.2)
	if tr := feed(2, 0.2); tr != nil {
		t.Fatalf("short peak confirmed: %+v", tr)
	}
	// Sustained overload: watch opens at minute 3, confirms at minute 5.
	feed(3, 0.9)
	feed(4, 0.9)
	if tr := feed(5, 0.9); tr == nil || tr.Kind != ServerOverloaded {
		t.Fatalf("sustained overload not confirmed: %+v", tr)
	}

	snap := r.Snapshot()
	for key, want := range map[string]float64{
		`autoglobe_monitor_watches_total{phase="observed"}`:  2,
		`autoglobe_monitor_watches_total{phase="expired"}`:   1,
		`autoglobe_monitor_watches_total{phase="confirmed"}`: 1,
	} {
		if snap[key] != want {
			t.Errorf("snapshot[%s] = %v, want %v", key, snap[key], want)
		}
	}
}
