package monitor

import (
	"sort"
	"sync"
)

// Liveness detects failure situations ("like a program crash") through
// missed heartbeats: every load monitor's report doubles as a
// heartbeat, and an entity that stays silent for more than Timeout
// minutes is declared dead. The controller then remedies the failure,
// for example with a restart.
//
// Flapping hosts — a congested link delivering every other heartbeat —
// would make a naive detector oscillate between dead and alive,
// triggering restart/demotion churn exactly like the short load peaks
// the watchTime mechanism filters. Liveness therefore applies the same
// hysteresis idea: an entity is declared dead only after DeadAfter
// consecutive missed probes (evaluations of Dead while silent), and a
// dead entity is re-admitted only after AliveAfter consecutive
// heartbeats.
type Liveness struct {
	// Timeout is the number of minutes an entity may stay silent before
	// an evaluation counts as a missed probe.
	Timeout int
	// DeadAfter is the number of consecutive missed probes before the
	// entity is declared dead. Minimum (and default) 1: the first
	// expired evaluation kills it, the pre-hysteresis behavior.
	DeadAfter int
	// AliveAfter is the number of consecutive heartbeats a dead entity
	// must deliver before it counts as alive again. Minimum (and
	// default) 1.
	AliveAfter int

	// mu guards state and metrics: the coordinator delivers beats from
	// whatever goroutine a transport runs its handler on (one per HTTP
	// request) while the control loop evaluates Silent/Dead/Down, so the
	// detector locks internally.
	mu      sync.Mutex
	state   map[string]*livenessState
	metrics *livenessMetrics
}

type livenessState struct {
	last      int // minute of the most recent beat
	misses    int // consecutive missed probes (silent evaluations)
	missedAt  int // minute of the last counted miss (guards double counting); while dead, the minute of death
	dead      bool
	successes int  // consecutive beats while dead
	recovered bool // completed a recovery streak, not yet reported
	gone      bool // Forget dropped it: a handle on it resolves again by name
}

// LivenessHandle caches one entity's detector state for BeatHandle. The
// zero handle, and one whose state Forget dropped, resolves by name on
// its next beat. It is used only under its detector's lock.
type LivenessHandle struct{ st *livenessState }

// NewLiveness returns a liveness detector with the given timeout
// (minimum 1 minute) and no hysteresis: one missed probe kills, one
// beat revives.
func NewLiveness(timeout int) *Liveness {
	return NewLivenessHysteresis(timeout, 1, 1)
}

// NewLivenessHysteresis returns a liveness detector declaring death
// after deadAfter consecutive missed probes and life after aliveAfter
// consecutive heartbeats. All parameters are clamped to minimum 1.
func NewLivenessHysteresis(timeout, deadAfter, aliveAfter int) *Liveness {
	if timeout < 1 {
		timeout = 1
	}
	if deadAfter < 1 {
		deadAfter = 1
	}
	if aliveAfter < 1 {
		aliveAfter = 1
	}
	return &Liveness{
		Timeout:    timeout,
		DeadAfter:  deadAfter,
		AliveAfter: aliveAfter,
		state:      make(map[string]*livenessState),
	}
}

// Beat records a heartbeat for an entity. A beat from an entity
// currently considered dead counts toward its AliveAfter recovery
// streak — unless it is for the minute of death or earlier: that is a
// replay of traffic from before the death (a held or duplicated frame,
// a retried POST), not proof of life, and it is ignored. Recovered
// reports completed recoveries. The recorded last-seen minute is
// monotone: an agent restarted with a fresh local counter must not
// rewind a host that a coordinator probe (stamped with the
// authoritative clock) already confirmed alive.
func (l *Liveness) Beat(entity string, minute int) { l.BeatHandle(new(LivenessHandle), entity, minute) }

// BeatHandle is Beat through a handle the caller caches per entity.
func (l *Liveness) BeatHandle(h *LivenessHandle, entity string, minute int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if h.st == nil || h.st.gone {
		if h.st = l.state[entity]; h.st == nil {
			h.st = &livenessState{last: minute, missedAt: -1}
			l.state[entity] = h.st
			return
		}
	}
	st := h.st
	if st.dead && minute <= st.missedAt {
		return
	}
	if minute > st.last {
		st.last = minute
	}
	if st.dead {
		st.successes++
		if st.successes >= l.AliveAfter {
			st.dead = false
			st.misses = 0
			st.successes = 0
			st.missedAt = -1
			st.recovered = true
			if l.metrics != nil {
				l.metrics.recovered.Inc()
			}
		}
		return
	}
	st.misses = 0
}

// MarkDead seeds an entity directly into the dead state, as if it had
// exhausted its DeadAfter misses at the given minute. A recovered
// coordinator uses it to replay journaled liveness transitions: a host
// confirmed dead before the crash must stay demoted after the restart
// (and must still earn its AliveAfter streak to be re-pooled) instead
// of silently re-entering the landscape with the coordinator's memory.
func (l *Liveness) MarkDead(entity string, minute int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.state[entity]
	if !ok {
		st = &livenessState{}
		l.state[entity] = st
	}
	st.last = minute
	st.misses = l.DeadAfter
	st.missedAt = minute
	st.dead = true
	st.successes = 0
	st.recovered = false
}

// Forget stops tracking an entity (orderly shutdown is not a failure).
func (l *Liveness) Forget(entity string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if st := l.state[entity]; st != nil {
		st.gone = true
		delete(l.state, entity)
	}
}

// Tracking reports whether the entity is being watched and currently
// considered alive.
func (l *Liveness) Tracking(entity string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.state[entity]
	return ok && !st.dead
}

// Silent returns the alive entities whose last heartbeat is more than
// Timeout minutes old — the candidates the coordinator probes before
// the next Dead evaluation can take them down.
func (l *Liveness) Silent(minute int) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for e, st := range l.state {
		if !st.dead && minute-st.last > l.Timeout {
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

// Down returns the entities currently considered dead, sorted. The
// coordinator keeps probing them: each answered probe is a Beat and
// counts toward the AliveAfter recovery streak.
func (l *Liveness) Down() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for e, st := range l.state {
		if st.dead {
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

// Dead evaluates every tracked entity at the given minute: each alive
// entity whose last heartbeat is more than Timeout minutes old accrues
// one missed probe (at most one per minute), and entities reaching
// DeadAfter consecutive misses are declared dead and returned, sorted.
// Each death is reported exactly once; a dead entity stays tracked so
// its recovery streak can revive it (see Beat and Recovered).
func (l *Liveness) Dead(minute int) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for e, st := range l.state {
		if st.dead {
			// A relapse into silence resets the recovery streak: the
			// AliveAfter successes must be consecutive.
			if minute-st.last > l.Timeout {
				st.successes = 0
			}
			continue
		}
		if minute-st.last <= l.Timeout {
			continue
		}
		if st.missedAt != minute {
			st.misses++
			st.missedAt = minute
		}
		if st.misses >= l.DeadAfter {
			st.dead = true
			st.successes = 0
			// A recovery completed but not yet drained by Recovered is
			// void now: reporting it after this re-death would re-pool a
			// dead host.
			st.recovered = false
			if l.metrics != nil {
				l.metrics.dead.Inc()
			}
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

// Recovered returns the entities that completed their AliveAfter
// recovery streak since the last call, sorted. The caller re-admits
// them (e.g. re-pools a demoted host).
func (l *Liveness) Recovered() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
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
