package monitor

import (
	"testing"

	"autoglobe/internal/obs"
)

// TestLivenessDeadEvaluatedRepeatedlyPerMinute pins the missedAt guard:
// however often the control loop sweeps within one minute, a silent
// entity accrues exactly one miss for that minute.
func TestLivenessDeadEvaluatedRepeatedlyPerMinute(t *testing.T) {
	l := NewLiveness()
	l.Beat("e", 0)
	// Minute 3 is past the timeout. Three sweeps in the same minute
	// must count one miss, not the two that kill.
	for i := 0; i < 3; i++ {
		if d, _ := l.Sweep(3); len(d) != 0 {
			t.Fatalf("evaluation %d at minute 3 declared dead: %v", i, d)
		}
	}
	// The second consecutive miss (a new minute) kills.
	if d, _ := l.Sweep(4); len(d) != 1 || d[0] != "e" {
		t.Fatalf("Sweep(4) = %v, want [e]", d)
	}
}

// TestLivenessRecoveryStreakSemantics pins how probe answers interleave
// with sweeps during recovery: gaps within the timeout keep
// the recovery streak alive (a degraded-but-answering host is
// converging), while silence beyond it resets the streak.
func TestLivenessRecoveryStreakSemantics(t *testing.T) {
	dead := func(t *testing.T) *Liveness {
		t.Helper()
		l := NewLiveness()
		l.Beat("e", 0)
		l.Sweep(3)
		if d, _ := l.Sweep(4); len(d) != 1 {
			t.Fatalf("Sweep(4) = %v, want [e]", d)
		}
		return l
	}
	t.Run("short gaps tolerated", func(t *testing.T) {
		l := dead(t)
		// Probe answers at minutes 5 and 7 — the gap is within the
		// 2-minute timeout, so the streak completes on the second beat.
		l.Beat("e", 5)
		l.Sweep(6)
		l.Sweep(7)
		l.Beat("e", 7)
		if _, rec := l.Sweep(7); len(rec) != 1 || rec[0] != "e" {
			t.Fatalf("streak with short gaps did not recover: %v", rec)
		}
	})
	t.Run("long silence resets", func(t *testing.T) {
		l := dead(t)
		l.Beat("e", 5) // streak 1
		// Relapse: silence beyond the timeout resets the streak.
		l.Sweep(8)
		l.Beat("e", 9)
		if _, rec := l.Sweep(9); len(rec) != 0 {
			t.Fatalf("recovered with 1 beat after relapse: %v", rec)
		}
		l.Beat("e", 10) // streak 2 → recovered
		if _, rec := l.Sweep(10); len(rec) != 1 || rec[0] != "e" {
			t.Fatalf("streak of 2 after relapse did not recover: %v", rec)
		}
	})
}

// TestLivenessTransitionMetrics counts death and recovery transitions.
func TestLivenessTransitionMetrics(t *testing.T) {
	r := obs.NewRegistry()
	l := NewLiveness()
	l.Instrument(r)
	l.Beat("e", 0)
	l.Sweep(3)
	l.Sweep(4) // dead
	l.Beat("e", 5)
	l.Beat("e", 6) // recovered
	l.Sweep(9)
	l.Sweep(10) // dead again
	snap := r.Snapshot()
	if got := snap[`autoglobe_liveness_transitions_total{transition="dead"}`]; got != 2 {
		t.Errorf("dead transitions = %v, want 2", got)
	}
	if got := snap[`autoglobe_liveness_transitions_total{transition="recovered"}`]; got != 1 {
		t.Errorf("recovered transitions = %v, want 1", got)
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
