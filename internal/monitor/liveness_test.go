package monitor

import "testing"

func TestLivenessDetectsSilence(t *testing.T) {
	l := NewLiveness(2)
	l.Beat("a", 0)
	l.Beat("b", 0)
	if dead := l.Dead(1); len(dead) != 0 {
		t.Fatalf("Dead(1) = %v, want none", dead)
	}
	l.Beat("a", 2) // a keeps beating, b goes silent
	if dead := l.Dead(3); len(dead) != 1 || dead[0] != "b" {
		t.Fatalf("Dead(3) = %v, want [b]", dead)
	}
	// Each failure is reported once.
	if dead := l.Dead(10); len(dead) != 1 || dead[0] != "a" {
		t.Fatalf("Dead(10) = %v, want [a] (b already reported)", dead)
	}
}

func TestLivenessForget(t *testing.T) {
	l := NewLiveness(2)
	l.Beat("a", 0)
	if !l.Tracking("a") {
		t.Fatal("not tracking after beat")
	}
	l.Forget("a") // orderly shutdown
	if l.Tracking("a") {
		t.Fatal("still tracking after forget")
	}
	if dead := l.Dead(100); len(dead) != 0 {
		t.Fatalf("forgotten entity reported dead: %v", dead)
	}
}

func TestLivenessMinimumTimeout(t *testing.T) {
	l := NewLiveness(0)
	if l.Timeout != 1 {
		t.Fatalf("timeout = %d, want clamped to 1", l.Timeout)
	}
}

// TestLivenessHysteresisFlapSequences drives a single entity through
// scripted beat/silence sequences and checks the dead/alive transitions
// a hysteresis detector (N consecutive missed probes before dead, M
// successes before alive) must produce. Each step is one minute: 'b'
// beats then evaluates, '.' stays silent and evaluates. The expected
// string records the evaluation outcome per minute: 'D' the entity is
// reported dead this minute, 'R' it is reported recovered, '-' neither.
func TestLivenessHysteresisFlapSequences(t *testing.T) {
	cases := []struct {
		name                 string
		timeout, dead, alive int
		steps                string
		want                 string
	}{
		{
			// One silent evaluation is not enough at DeadAfter=2: the
			// beat at minute 3 resets the miss streak; only the two
			// consecutive misses at minutes 5 and 6 kill.
			name: "single gap survives", timeout: 1, dead: 2, alive: 1,
			steps: "b..b....",
			want:  "------D-",
		},
		{
			// Classic flap: alternating beat/silence never reaches two
			// consecutive misses — the entity is never declared dead.
			name: "alternating flap stays alive", timeout: 1, dead: 2, alive: 1,
			steps: "b.b.b.b.b.",
			want:  "----------",
		},
		{
			// Without hysteresis the same flap kills on the first gap.
			name: "alternating flap dies without hysteresis", timeout: 1, dead: 1, alive: 1,
			steps: "b..b",
			want:  "--DR",
		},
		{
			// A dead entity needs AliveAfter=3 consecutive beats; two
			// beats followed by a relapse (silence past the timeout)
			// restart the count.
			name: "recovery needs a streak", timeout: 1, dead: 2, alive: 3,
			steps: "b...bb..bbb",
			want:  "---D------R",
		},
		{
			// A long partition: death reported exactly once.
			name: "death reported once", timeout: 2, dead: 3, alive: 1,
			steps: "b..........",
			want:  "-----D-----",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := NewLivenessHysteresis(c.timeout, c.dead, c.alive)
			want := c.want
			if len(want) != len(c.steps) {
				t.Fatalf("bad test: %d steps, %d expectations", len(c.steps), len(want))
			}
			for m, step := range c.steps {
				if step == 'b' {
					l.Beat("e", m)
				}
				got := byte('-')
				if dead := l.Dead(m); len(dead) == 1 && dead[0] == "e" {
					got = 'D'
				} else if len(dead) != 0 {
					t.Fatalf("minute %d: unexpected dead set %v", m, dead)
				}
				if rec := l.Recovered(); len(rec) == 1 && rec[0] == "e" {
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

func TestLivenessSilent(t *testing.T) {
	l := NewLivenessHysteresis(1, 3, 1)
	l.Beat("a", 0)
	l.Beat("b", 0)
	if s := l.Silent(1); len(s) != 0 {
		t.Fatalf("Silent(1) = %v, want none", s)
	}
	l.Beat("a", 2)
	if s := l.Silent(3); len(s) != 1 || s[0] != "b" {
		t.Fatalf("Silent(3) = %v, want [b]", s)
	}
	// Silent entities are probe candidates, not dead yet.
	if l.Dead(3); !l.Tracking("b") {
		t.Fatal("b declared dead after a single miss at DeadAfter=3")
	}
}

func TestLivenessSortedOutput(t *testing.T) {
	l := NewLiveness(1)
	l.Beat("z", 0)
	l.Beat("a", 0)
	l.Beat("m", 0)
	dead := l.Dead(5)
	if len(dead) != 3 || dead[0] != "a" || dead[1] != "m" || dead[2] != "z" {
		t.Fatalf("Dead = %v, want sorted", dead)
	}
}

// TestLivenessMarkDead seeds entities directly into the dead state —
// the journal-replay path of a recovered coordinator: a host confirmed
// dead before the crash stays demoted after the restart and must still
// earn its full recovery streak.
func TestLivenessMarkDead(t *testing.T) {
	l := NewLivenessHysteresis(2, 2, 2)
	l.MarkDead("h", 5)
	if l.Tracking("h") {
		t.Fatal("marked-dead entity is tracked as alive")
	}
	if down := l.Down(); len(down) != 1 || down[0] != "h" {
		t.Fatalf("Down = %v, want [h]", down)
	}
	// The death was confirmed pre-crash: it is not re-reported.
	if dead := l.Dead(8); len(dead) != 0 {
		t.Fatalf("Dead(8) = %v, want none (already confirmed)", dead)
	}
	// The recovery streak starts from zero: one beat is not enough.
	l.Beat("h", 9)
	if rec := l.Recovered(); len(rec) != 0 {
		t.Fatalf("Recovered after one beat = %v, want none", rec)
	}
	l.Beat("h", 10)
	if rec := l.Recovered(); len(rec) != 1 || rec[0] != "h" {
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
	l := NewLivenessHysteresis(2, 2, 2)
	for m := 0; m <= 2; m++ {
		l.Beat("h", m)
	}
	for m := 3; m <= 6; m++ {
		l.Dead(m)
	}
	if l.Tracking("h") {
		t.Fatal("h not dead at minute 6")
	}
	l.Beat("h", 1)
	l.Beat("h", 1)
	l.Beat("h", 6)
	if rec := l.Recovered(); len(rec) != 0 {
		t.Fatalf("Recovered after replayed beats = %v, want none", rec)
	}
	l.Beat("h", 7)
	l.Beat("h", 8)
	if rec := l.Recovered(); len(rec) != 1 || rec[0] != "h" {
		t.Fatalf("Recovered after two fresh beats = %v, want [h]", rec)
	}

	l.MarkDead("j", 5)
	l.Beat("j", 4)
	l.Beat("j", 5)
	if rec := l.Recovered(); len(rec) != 0 {
		t.Fatalf("Recovered after replays of a journaled death = %v, want none", rec)
	}
	l.Beat("j", 6)
	l.Beat("j", 7)
	if rec := l.Recovered(); len(rec) != 1 || rec[0] != "j" {
		t.Fatalf("Recovered after two fresh beats = %v, want [j]", rec)
	}
}
