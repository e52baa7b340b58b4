package monitor

import "testing"

// TestLivenessDetectsSilence: an entity silent past the timeout misses
// a probe each minute and is declared dead at its second miss; each
// death is reported once.
func TestLivenessDetectsSilence(t *testing.T) {
	l := NewLiveness()
	l.Beat("a", 0)
	l.Beat("b", 0)
	if dead, _ := l.Sweep(2); len(dead) != 0 {
		t.Fatalf("Sweep(2) = %v, want none", dead)
	}
	l.Beat("a", 2) // a keeps beating, b goes silent
	if dead, _ := l.Sweep(3); len(dead) != 0 {
		t.Fatalf("Sweep(3) = %v, want none (b's first miss)", dead)
	}
	if dead, _ := l.Sweep(4); len(dead) != 1 || dead[0] != "b" {
		t.Fatalf("Sweep(4) = %v, want [b]", dead)
	}
	// Each failure is reported once.
	l.Sweep(10)
	if dead, _ := l.Sweep(11); len(dead) != 1 || dead[0] != "a" {
		t.Fatalf("Sweep(11) = %v, want [a] (b already reported)", dead)
	}
}

func TestLivenessForget(t *testing.T) {
	l := NewLiveness()
	l.Beat("a", 0)
	if !l.Tracking("a") {
		t.Fatal("not tracking after beat")
	}
	l.Forget("a") // orderly shutdown
	if l.Tracking("a") {
		t.Fatal("still tracking after forget")
	}
	l.Sweep(99)
	if dead, _ := l.Sweep(100); len(dead) != 0 {
		t.Fatalf("forgotten entity reported dead: %v", dead)
	}
}

// TestLivenessHysteresisFlapSequences drives a single entity through
// scripted beat/silence sequences and checks the dead/alive transitions
// the detector's hysteresis (a probe missed each minute past the
// 2-minute timeout, dead after 2 consecutive misses, alive after 2
// consecutive beats) must produce. Each step is one minute: 'b' beats
// then sweeps, '.' stays silent and sweeps. The expected string
// records the evaluation outcome per minute: 'D' the entity is reported
// dead this minute, 'R' it is reported recovered, '-' neither.
func TestLivenessHysteresisFlapSequences(t *testing.T) {
	cases := []struct {
		name  string
		steps string
		want  string
	}{
		{
			// One missed probe is not enough: the miss at minute 3 is
			// reset by the beat at minute 4; only the two consecutive
			// misses at minutes 7 and 8 kill.
			name:  "single gap survives",
			steps: "b...b.....",
			want:  "--------D-",
		},
		{
			// A flap: every silence costs one missed probe, never two in
			// a row — the entity is never declared dead.
			name:  "alternating flap stays alive",
			steps: "b...b...b...b...",
			want:  "----------------",
		},
		{
			// A dead entity needs 2 consecutive beats; a beat followed by
			// a relapse (silence past the timeout, minute 9) restarts the
			// count, so the beat at minute 10 is a first again.
			name:  "recovery needs a streak",
			steps: "b.....b...bb",
			want:  "----D------R",
		},
		{
			// A long partition: death reported exactly once.
			name:  "death reported once",
			steps: "b..........",
			want:  "----D------",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := NewLiveness()
			want := c.want
			if len(want) != len(c.steps) {
				t.Fatalf("bad test: %d steps, %d expectations", len(c.steps), len(want))
			}
			for m, step := range c.steps {
				if step == 'b' {
					l.Beat("e", m)
				}
				got := byte('-')
				dead, rec := l.Sweep(m)
				if len(dead) == 1 && dead[0] == "e" {
					got = 'D'
				} else if len(dead) != 0 {
					t.Fatalf("minute %d: unexpected dead set %v", m, dead)
				}
				if len(rec) == 1 && rec[0] == "e" {
					if got == 'D' {
						t.Fatalf("minute %d: dead and recovered at once", m)
					}
					got = 'R'
				}
				if got != want[m] {
					t.Errorf("minute %d: got %c, want %c", m, got, want[m])
				}
			}
		})
	}
}

// TestLivenessSilent: an alive entity past the timeout is among the
// Probes — a probe candidate — before a Sweep can take it down.
func TestLivenessSilent(t *testing.T) {
	l := NewLiveness()
	l.Beat("a", 0)
	l.Beat("b", 0)
	if s := l.Probes(2); len(s) != 0 {
		t.Fatalf("Probes(2) = %v, want none", s)
	}
	l.Beat("a", 2)
	if s := l.Probes(3); len(s) != 1 || s[0] != "b" {
		t.Fatalf("Probes(3) = %v, want [b]", s)
	}
	// Silent entities are probe candidates, not dead yet.
	if l.Sweep(3); !l.Tracking("b") {
		t.Fatal("b declared dead after a single miss")
	}
}

func TestLivenessSortedOutput(t *testing.T) {
	l := NewLiveness()
	l.Beat("z", 0)
	l.Beat("a", 0)
	l.Beat("m", 0)
	l.Sweep(5)
	dead, _ := l.Sweep(6)
	if len(dead) != 3 || dead[0] != "a" || dead[1] != "m" || dead[2] != "z" {
		t.Fatalf("Sweep = %v, want sorted", dead)
	}
}

// TestLivenessMarkDead seeds entities directly into the dead state —
// the journal-replay path of a recovered coordinator: a host confirmed
// dead before the crash stays demoted after the restart and must still
// earn its full recovery streak.
func TestLivenessMarkDead(t *testing.T) {
	l := NewLiveness()
	l.MarkDead("h", 5)
	if l.Tracking("h") {
		t.Fatal("marked-dead entity is tracked as alive")
	}
	if down := l.Down(); len(down) != 1 || down[0] != "h" {
		t.Fatalf("Down = %v, want [h]", down)
	}
	// The death was confirmed pre-crash: it is not re-reported.
	if dead, _ := l.Sweep(8); len(dead) != 0 {
		t.Fatalf("Sweep(8) = %v, want none (already confirmed)", dead)
	}
	// The recovery streak starts from zero: one beat is not enough.
	l.Beat("h", 9)
	if _, rec := l.Sweep(9); len(rec) != 0 {
		t.Fatalf("Recovered after one beat = %v, want none", rec)
	}
	l.Beat("h", 10)
	if _, rec := l.Sweep(10); len(rec) != 1 || rec[0] != "h" {
		t.Fatalf("Recovered after the full streak = %v, want [h]", rec)
	}
	if !l.Tracking("h") {
		t.Fatal("recovered entity not tracked as alive")
	}
	// MarkDead on an already-tracked alive entity demotes it too (the
	// replay may race a first post-restart heartbeat).
	l.Beat("x", 0)
	l.MarkDead("x", 1)
	if l.Tracking("x") {
		t.Fatal("MarkDead on a tracked entity left it alive")
	}
}

// TestLivenessReplayedBeatDoesNotRevive: while an entity is dead, a beat
// for the minute of its death or earlier is a replay of pre-death
// traffic, not proof of life, and does not count toward the recovery
// streak. Beats after the death still revive it, for a detected death
// and a journaled one (MarkDead) alike.
func TestLivenessReplayedBeatDoesNotRevive(t *testing.T) {
	l := NewLiveness()
	for m := 0; m <= 2; m++ {
		l.Beat("h", m)
	}
	for m := 3; m <= 6; m++ {
		l.Sweep(m)
	}
	if l.Tracking("h") {
		t.Fatal("h not dead at minute 6")
	}
	l.Beat("h", 1)
	l.Beat("h", 1)
	l.Beat("h", 6)
	if _, rec := l.Sweep(6); len(rec) != 0 {
		t.Fatalf("Recovered after replayed beats = %v, want none", rec)
	}
	l.Beat("h", 7)
	l.Beat("h", 8)
	if _, rec := l.Sweep(8); len(rec) != 1 || rec[0] != "h" {
		t.Fatalf("Recovered after two fresh beats = %v, want [h]", rec)
	}

	l.MarkDead("j", 5)
	l.Beat("j", 4)
	l.Beat("j", 5)
	if _, rec := l.Sweep(8); len(rec) != 0 {
		t.Fatalf("Recovered after replays of a journaled death = %v, want none", rec)
	}
	l.Beat("j", 6)
	l.Beat("j", 7)
	if _, rec := l.Sweep(8); len(rec) != 1 || rec[0] != "j" {
		t.Fatalf("Recovered after two fresh beats = %v, want [j]", rec)
	}
}
