package monitor_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"autoglobe/internal/agent"
	"autoglobe/internal/cluster"
	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/service"
	"autoglobe/internal/wire"
)

// The liveness detector — failures found through missed load-monitor
// reports — keeps its state in the coordinator's host slots
// (internal/agent). These tests pin its rules through the coordinator,
// the way the control plane drives it: a beat is an ingested heartbeat,
// a sweep is CheckLiveness, and its probes go out over a loopback on
// which every host a test names listens, answering as the test says.

// detector is a coordinator over an empty landscape and the loopback
// its probes travel.
type detector struct {
	t      testing.TB
	c      *agent.Coordinator
	tr     *wire.Loopback
	heard  map[string]bool
	probed []string         // the hosts the last sweep probed, in order
	answer func(i int) bool // whether a sweep's i-th probe is answered; nil: none is
}

func newDetector(t testing.TB) *detector {
	t.Helper()
	lms, err := monitor.NewSystem(monitor.PaperParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	d := &detector{t: t, tr: wire.NewLoopback(), heard: make(map[string]bool)}
	t.Cleanup(func() { d.tr.Close() })
	dep := service.NewDeployment(cluster.MustNew(), service.MustCatalog())
	if d.c, err = agent.NewCoordinator("", dep, lms, d.tr); err != nil {
		t.Fatal(err)
	}
	return d
}

var errNoAnswer = errors.New("probe not answered")

// listen makes host a node its probes reach.
func (d *detector) listen(host string) {
	if d.heard[host] {
		return
	}
	d.heard[host] = true
	err := d.tr.Listen(host, func(env *wire.Envelope) (*wire.Envelope, error) {
		i := len(d.probed)
		d.probed = append(d.probed, host)
		if d.answer == nil || !d.answer(i) {
			return nil, errNoAnswer
		}
		return wire.AcquireProbeAckEnvelope(host, env.From, *env.Probe), nil
	})
	if err != nil {
		d.t.Fatal(err)
	}
}

// beat ingests a heartbeat of host for minute, by name.
func (d *detector) beat(host string, minute int) {
	d.t.Helper()
	d.listen(host)
	if err := d.c.Ingest(wire.Heartbeat{Host: host, Minute: minute}); err != nil {
		d.t.Fatal(err)
	}
}

// handle delivers a heartbeat of host for minute as a frame through the
// coordinator's transport handler.
func (d *detector) handle(host string, minute int) {
	d.t.Helper()
	reply, err := d.c.Handle(wire.HeartbeatEnvelope(host, agent.CoordinatorNode, wire.Heartbeat{Host: host, Minute: minute}))
	if err != nil || reply == nil || reply.Ack == nil || !reply.Ack.OK {
		d.t.Fatalf("heartbeat %s@%d: reply %v, %v", host, minute, reply, err)
	}
	wire.ReleaseEnvelope(reply)
}

func (d *detector) markDead(host string, minute int) {
	d.listen(host)
	d.c.Liveness().MarkDead(host, minute)
}

// sweep runs the minute's liveness check: the probes, then the verdicts.
func (d *detector) sweep(minute int) (dead, recovered []string) {
	d.probed = d.probed[:0]
	return d.c.CheckLiveness(context.Background(), minute)
}

func (d *detector) tracking(host string) bool { return d.c.Liveness().Tracking(host) }

// TestLivenessDetectsSilence: an entity silent past the timeout misses
// a probe each minute and is declared dead at its second miss; each
// death is reported once.
func TestLivenessDetectsSilence(t *testing.T) {
	d := newDetector(t)
	d.beat("a", 0)
	d.beat("b", 0)
	if dead, _ := d.sweep(2); len(dead) != 0 {
		t.Fatalf("sweep(2) = %v, want none", dead)
	}
	d.beat("a", 2) // a keeps beating, b goes silent
	if dead, _ := d.sweep(3); len(dead) != 0 {
		t.Fatalf("sweep(3) = %v, want none (b's first miss)", dead)
	}
	if dead, _ := d.sweep(4); len(dead) != 1 || dead[0] != "b" {
		t.Fatalf("sweep(4) = %v, want [b]", dead)
	}
	// Each failure is reported once.
	d.sweep(10)
	if dead, _ := d.sweep(11); len(dead) != 1 || dead[0] != "a" {
		t.Fatalf("sweep(11) = %v, want [a] (b already reported)", dead)
	}
}

// TestLivenessForget: a released host (orderly shutdown is not a
// failure) is neither tracked nor probed nor reported, and its next beat
// starts afresh — alive at once, even if it was dead when released.
func TestLivenessForget(t *testing.T) {
	d := newDetector(t)
	d.beat("a", 0)
	if !d.tracking("a") {
		t.Fatal("not tracking after beat")
	}
	d.sweep(3)
	if dead, _ := d.sweep(4); !slices.Equal(dead, []string{"a"}) {
		t.Fatalf("sweep(4) = %v, want [a]", dead)
	}
	d.c.Release("a")
	if d.tracking("a") || d.c.Liveness().Down() != nil {
		t.Fatal("still tracking after release")
	}
	d.sweep(99)
	if dead, rec := d.sweep(100); len(dead) != 0 || len(rec) != 0 || len(d.probed) != 0 {
		t.Fatalf("released entity probed %v, reported dead %v, recovered %v", d.probed, dead, rec)
	}
	d.beat("a", 100)
	if !d.tracking("a") {
		t.Fatal("a released dead host's next beat did not start it alive")
	}
	if dead, rec := d.sweep(101); len(dead) != 0 || len(rec) != 0 {
		t.Fatalf("sweep(101) after a fresh start: dead %v, recovered %v; want none", dead, rec)
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
			d := newDetector(t)
			want := c.want
			if len(want) != len(c.steps) {
				t.Fatalf("bad test: %d steps, %d expectations", len(c.steps), len(want))
			}
			for m, step := range c.steps {
				if step == 'b' {
					d.beat("e", m)
				}
				got := byte('-')
				dead, rec := d.sweep(m)
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

// TestLivenessSilent: an alive entity past the timeout is probed — a
// probe candidate — before a sweep can take it down.
func TestLivenessSilent(t *testing.T) {
	d := newDetector(t)
	d.beat("a", 0)
	d.beat("b", 0)
	if d.sweep(2); len(d.probed) != 0 {
		t.Fatalf("probes at minute 2 = %v, want none", d.probed)
	}
	d.beat("a", 2)
	// Silent entities are probe candidates, not dead yet.
	if d.sweep(3); !slices.Equal(d.probed, []string{"b"}) || !d.tracking("b") {
		t.Fatalf("probes at minute 3 = %v, b alive %t; want [b] and alive after a single miss", d.probed, d.tracking("b"))
	}
}

func TestLivenessSortedOutput(t *testing.T) {
	d := newDetector(t)
	d.beat("z", 0)
	d.beat("a", 0)
	d.beat("m", 0)
	if d.sweep(5); !slices.Equal(d.probed, []string{"a", "m", "z"}) {
		t.Fatalf("probes = %v, want sorted", d.probed)
	}
	dead, _ := d.sweep(6)
	if !slices.Equal(dead, []string{"a", "m", "z"}) {
		t.Fatalf("sweep = %v, want sorted", dead)
	}
}

// TestLivenessMarkDead seeds entities directly into the dead state —
// the journal-replay path of a recovered coordinator: a host confirmed
// dead before the crash stays demoted after the restart and must still
// earn its full recovery streak.
func TestLivenessMarkDead(t *testing.T) {
	d := newDetector(t)
	live := d.c.Liveness()
	d.markDead("h", 5)
	if d.tracking("h") {
		t.Fatal("marked-dead entity is tracked as alive")
	}
	if down := live.Down(); len(down) != 1 || down[0] != "h" {
		t.Fatalf("Down = %v, want [h]", down)
	}
	// The death was confirmed pre-crash: it is not re-reported.
	if dead, _ := d.sweep(8); len(dead) != 0 {
		t.Fatalf("sweep(8) = %v, want none (already confirmed)", dead)
	}
	// The recovery streak starts from zero: one beat is not enough.
	d.beat("h", 9)
	if _, rec := d.sweep(9); len(rec) != 0 {
		t.Fatalf("recovered after one beat = %v, want none", rec)
	}
	d.beat("h", 10)
	if _, rec := d.sweep(10); len(rec) != 1 || rec[0] != "h" {
		t.Fatalf("recovered after the full streak = %v, want [h]", rec)
	}
	if !d.tracking("h") {
		t.Fatal("recovered entity not tracked as alive")
	}
	// MarkDead on an already-tracked alive entity demotes it too (the
	// replay may race a first post-restart heartbeat).
	d.beat("x", 0)
	d.markDead("x", 1)
	if d.tracking("x") {
		t.Fatal("MarkDead on a tracked entity left it alive")
	}
}

// TestLivenessReplayedBeatDoesNotRevive: while an entity is dead, a beat
// for the minute of its death or earlier is a replay of pre-death
// traffic, not proof of life, and does not count toward the recovery
// streak. Beats after the death still revive it, for a detected death
// and a journaled one (MarkDead) alike.
func TestLivenessReplayedBeatDoesNotRevive(t *testing.T) {
	d := newDetector(t)
	for m := 0; m <= 2; m++ {
		d.beat("h", m)
	}
	for m := 3; m <= 6; m++ {
		d.sweep(m)
	}
	if d.tracking("h") {
		t.Fatal("h not dead at minute 6")
	}
	d.beat("h", 1)
	d.handle("h", 1)
	d.beat("h", 6)
	if _, rec := d.sweep(6); len(rec) != 0 {
		t.Fatalf("recovered after replayed beats = %v, want none", rec)
	}
	d.beat("h", 7)
	d.handle("h", 8)
	if _, rec := d.sweep(8); len(rec) != 1 || rec[0] != "h" {
		t.Fatalf("recovered after two fresh beats = %v, want [h]", rec)
	}

	d.markDead("j", 5)
	d.beat("j", 4)
	d.beat("j", 5)
	if _, rec := d.sweep(8); len(rec) != 0 {
		t.Fatalf("recovered after replays of a journaled death = %v, want none", rec)
	}
	d.beat("j", 6)
	d.beat("j", 7)
	if _, rec := d.sweep(8); len(rec) != 1 || rec[0] != "j" {
		t.Fatalf("recovered after two fresh beats = %v, want [j]", rec)
	}
}

// TestLivenessDeadEvaluatedRepeatedlyPerMinute pins the missedAt guard:
// however often the control loop sweeps within one minute, a silent
// entity accrues exactly one miss for that minute.
func TestLivenessDeadEvaluatedRepeatedlyPerMinute(t *testing.T) {
	d := newDetector(t)
	d.beat("e", 0)
	// Minute 3 is past the timeout. Three sweeps in the same minute
	// must count one miss, not the two that kill.
	for i := 0; i < 3; i++ {
		if dead, _ := d.sweep(3); len(dead) != 0 {
			t.Fatalf("evaluation %d at minute 3 declared dead: %v", i, dead)
		}
	}
	// The second consecutive miss (a new minute) kills.
	if dead, _ := d.sweep(4); len(dead) != 1 || dead[0] != "e" {
		t.Fatalf("sweep(4) = %v, want [e]", dead)
	}
}

// TestLivenessRecoveryStreakSemantics pins how probe answers interleave
// with sweeps during recovery: gaps within the timeout keep the recovery
// streak alive (a degraded-but-answering host is converging), while
// silence beyond it resets the streak.
func TestLivenessRecoveryStreakSemantics(t *testing.T) {
	dead := func(t *testing.T) *detector {
		t.Helper()
		d := newDetector(t)
		d.beat("e", 0)
		d.sweep(3)
		if dead, _ := d.sweep(4); len(dead) != 1 {
			t.Fatalf("sweep(4) = %v, want [e]", dead)
		}
		return d
	}
	t.Run("short gaps tolerated", func(t *testing.T) {
		d := dead(t)
		// Beats at minutes 5 and 7 — the gap is within the 2-minute
		// timeout, so the streak completes on the second beat. The
		// sweep at minute 7 runs before that beat, with the host silent
		// for exactly the timeout, and must keep the streak.
		d.beat("e", 5)
		d.sweep(6)
		d.sweep(7)
		d.beat("e", 7)
		if _, rec := d.sweep(7); len(rec) != 1 || rec[0] != "e" {
			t.Fatalf("streak with short gaps did not recover: %v", rec)
		}
	})
	t.Run("short gaps tolerated through probes", func(t *testing.T) {
		d := dead(t)
		// Probe answers at minutes 5 and 7 count as the two beats.
		d.answer = func(int) bool { return true }
		d.sweep(5)
		d.answer = nil
		d.sweep(6)
		d.answer = func(int) bool { return true }
		if _, rec := d.sweep(7); len(rec) != 1 || rec[0] != "e" {
			t.Fatalf("streak with short gaps did not recover: %v", rec)
		}
	})
	t.Run("long silence resets", func(t *testing.T) {
		d := dead(t)
		d.beat("e", 5) // streak 1
		// Relapse: silence beyond the timeout resets the streak.
		d.sweep(8)
		d.beat("e", 9)
		if _, rec := d.sweep(9); len(rec) != 0 {
			t.Fatalf("recovered with 1 beat after relapse: %v", rec)
		}
		d.beat("e", 10) // streak 2 → recovered
		if _, rec := d.sweep(10); len(rec) != 1 || rec[0] != "e" {
			t.Fatalf("streak of 2 after relapse did not recover: %v", rec)
		}
	})
}

// TestLivenessTransitionMetrics counts death and recovery transitions.
func TestLivenessTransitionMetrics(t *testing.T) {
	r := obs.NewRegistry()
	d := newDetector(t)
	d.c.Liveness().Instrument(r)
	d.beat("e", 0)
	d.sweep(3)
	d.sweep(4) // dead
	d.beat("e", 5)
	d.beat("e", 6) // recovered
	d.sweep(9)
	d.sweep(10) // dead again
	snap := r.Snapshot()
	if got := snap[`autoglobe_liveness_transitions_total{transition="dead"}`]; got != 2 {
		t.Errorf("dead transitions = %v, want 2", got)
	}
	if got := snap[`autoglobe_liveness_transitions_total{transition="recovered"}`]; got != 1 {
		t.Errorf("recovered transitions = %v, want 1", got)
	}
}

// TestLivenessHandleConcurrentBeats: 32 goroutines beat eight hosts
// through the coordinator's Handle while the minute runs CheckLiveness
// and Down and Releases hosts under them. Run under -race it checks that
// the detector's state is touched only under the ingest lock; at the end
// every host released once more and beaten once must be alive, probed by
// nobody and down nowhere.
func TestLivenessHandleConcurrentBeats(t *testing.T) {
	const entities, beaters = 8, 32
	d := newDetector(t)
	names := make([]string, entities)
	for i := range names {
		names[i] = fmt.Sprintf("h%d", i)
		d.listen(names[i])
	}
	var minute atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < beaters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				e := (g + i) % entities
				env := wire.HeartbeatEnvelope(names[e], agent.CoordinatorNode, wire.Heartbeat{Host: names[e], Minute: int(minute.Load())})
				reply, err := d.c.Handle(env)
				if err != nil {
					t.Error(err)
					return
				}
				wire.ReleaseEnvelope(reply)
			}
		}(g)
	}
	for m := 1; m <= 1000; m++ {
		minute.Store(int64(m))
		d.sweep(m)
		d.c.Liveness().Down()
		if m%7 == 0 {
			d.c.Release(names[m%entities])
		}
	}
	stop.Store(true)
	wg.Wait()

	last := int(minute.Load()) + 1
	for _, n := range names {
		d.c.Release(n)
	}
	for _, n := range names {
		d.handle(n, last)
	}
	for _, n := range names {
		if !d.tracking(n) {
			t.Fatalf("%s is not tracked after a beat", n)
		}
	}
	if d.sweep(last); len(d.probed) != 0 {
		t.Fatalf("probes at minute %d = %v after every host beat", last, d.probed)
	}
	if down := d.c.Liveness().Down(); down != nil {
		t.Fatalf("down %v, want none", down)
	}
}

// refLiveness is the reference liveness detector: a map by name, and
// one minute answered by Silent and Down (the probe list), the answered
// probes' beats, then Dead and Recovered.
type refLiveness struct {
	state           map[string]*refLivenessState
	dead, recovered int
}

type refLivenessState struct {
	last      int
	misses    int
	missedAt  int
	dead      bool
	successes int
	recovered bool
}

// The hysteresis the reference is written for: silent past 2 minutes,
// dead after 2 consecutive misses, alive after 2 consecutive beats.
const refTimeout, refDeadAfter, refAliveAfter = 2, 2, 2

func (l *refLiveness) Beat(entity string, minute int) {
	st := l.state[entity]
	if st == nil {
		l.state[entity] = &refLivenessState{last: minute, missedAt: -1}
		return
	}
	if st.dead && minute <= st.missedAt {
		return
	}
	if minute > st.last {
		st.last = minute
	}
	if st.dead {
		st.successes++
		if st.successes >= refAliveAfter {
			st.dead = false
			st.misses = 0
			st.successes = 0
			st.missedAt = -1
			st.recovered = true
			l.recovered++
		}
		return
	}
	st.misses = 0
}

func (l *refLiveness) MarkDead(entity string, minute int) {
	st, ok := l.state[entity]
	if !ok {
		st = &refLivenessState{}
		l.state[entity] = st
	}
	st.last = minute
	st.misses = refDeadAfter
	st.missedAt = minute
	st.dead = true
	st.successes = 0
	st.recovered = false
}

func (l *refLiveness) Forget(entity string) { delete(l.state, entity) }

func (l *refLiveness) Tracking(entity string) bool {
	st, ok := l.state[entity]
	return ok && !st.dead
}

func (l *refLiveness) Silent(minute int) []string {
	var out []string
	for e, st := range l.state {
		if !st.dead && minute-st.last > refTimeout {
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

func (l *refLiveness) Down() []string {
	var out []string
	for e, st := range l.state {
		if st.dead {
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

func (l *refLiveness) Dead(minute int) []string {
	var out []string
	for e, st := range l.state {
		if st.dead {
			if minute-st.last > refTimeout {
				st.successes = 0
			}
			continue
		}
		if minute-st.last <= refTimeout {
			continue
		}
		if st.missedAt != minute {
			st.misses++
			st.missedAt = minute
		}
		if st.misses >= refDeadAfter {
			st.dead = true
			st.successes = 0
			st.recovered = false
			l.dead++
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

func (l *refLiveness) Recovered() []string {
	var out []string
	for e, st := range l.state {
		if st.recovered {
			st.recovered = false
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

// FuzzLivenessMatchesReference runs one random schedule against the
// coordinator's detector and the reference: beats ingested by name and
// delivered as frames through Handle (replays at or before a death
// minute included), MarkDead, Release, minutes skipped as in a
// leaderless window, and minutes swept once or twice. A sweep is
// CheckLiveness — the probe list, a beat for each answered probe, then
// the verdicts — and the hosts probed, in order, the dead and recovered
// lists, Down, Tracking and both transition counters must agree after
// every step.
func FuzzLivenessMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 5, 0, 5, 0, 5, 0, 5, 0, 0, 0, 5, 255, 5, 255})
	f.Add([]byte{3, 1, 5, 0, 5, 0, 6, 0, 5, 0, 0, 33, 0, 33, 5, 255, 5, 255, 2, 1, 5, 7})
	f.Add([]byte{0, 2, 1, 2, 5, 0, 7, 0, 5, 0, 4, 2, 5, 0, 5, 0, 1, 2, 1, 18, 5, 255, 5, 255})
	// Minute 3 swept twice: one miss, not the two that kill.
	f.Add([]byte{0, 0, 5, 0, 5, 0, 5, 0, 7, 0, 7, 0})
	// Dead at 4, beats at 5 and 7: the sweep at 7 finds the host silent
	// for exactly the timeout and keeps its recovery streak.
	f.Add([]byte{0, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 0, 0, 5, 0, 5, 0, 0, 0, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const entities = 5
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		r := obs.NewRegistry()
		d := newDetector(t)
		d.c.Liveness().Instrument(r)
		ref := &refLiveness{state: make(map[string]*refLivenessState)}
		names := [entities]string{"h0", "h1", "h2", "h3", "h4"}
		for _, n := range names {
			d.listen(n)
		}
		minute := 0
		for step := 0; len(data) > 0 && step < 512; step++ {
			op, arg := next(), next()
			e := int(arg) % entities
			var got, want string
			switch op % 8 {
			case 0, 1:
				// A fresh beat, or a replay up to three minutes old.
				m := minute - int(arg>>4)%4
				if op%8 == 0 {
					d.beat(names[e], m)
				} else {
					d.handle(names[e], m)
				}
				ref.Beat(names[e], m)
			case 2:
				d.markDead(names[e], minute)
				ref.MarkDead(names[e], minute)
			case 3:
				d.c.Release(names[e])
				ref.Forget(names[e])
			case 4:
				// A leaderless window: minutes pass and nobody sweeps.
				minute += 1 + int(arg)%4
			case 5, 6, 7:
				if op%8 != 7 {
					minute++ // 7 sweeps the same minute again
				}
				// Bit i of arg answers the i-th probe.
				d.answer = func(i int) bool { return arg>>(i%8)&1 == 1 }
				dead, recovered := d.sweep(minute)
				got = fmt.Sprint(d.probed, dead, recovered)

				refProbes := append(ref.Silent(minute), ref.Down()...)
				for i, host := range refProbes {
					if arg>>(i%8)&1 == 1 {
						ref.Beat(host, minute)
					}
				}
				want = fmt.Sprint(refProbes, ref.Dead(minute), ref.Recovered())
			}
			snap := r.Snapshot()
			got += fmt.Sprint(d.c.Liveness().Down(),
				snap[agent.MetricLiveness+`{transition="dead"}`], snap[agent.MetricLiveness+`{transition="recovered"}`])
			want += fmt.Sprint(ref.Down(), float64(ref.dead), float64(ref.recovered))
			for _, n := range names {
				got += fmt.Sprint(d.tracking(n))
				want += fmt.Sprint(ref.Tracking(n))
			}
			if got != want {
				t.Fatalf("step %d op %d minute %d:\n got  %s\n want %s", step, op%8, minute, got, want)
			}
		}
	})
}
