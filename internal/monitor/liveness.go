package monitor

import (
	"sort"
	"sync"
)

// Liveness detects failure situations ("like a program crash") through
// missed heartbeats: every load monitor's report doubles as a
// heartbeat, and an entity that stays silent too long is declared dead.
// The controller then remedies the failure, for example with a restart.
//
// Flapping hosts — a congested link delivering every other heartbeat —
// would make a naive detector oscillate between dead and alive,
// triggering restart/demotion churn exactly like the short load peaks
// the watchTime mechanism filters. Liveness therefore applies the same
// hysteresis idea: an entity is declared dead only after deadAfter
// consecutive missed probes (sweeps that find it silent), and a dead
// entity is re-admitted only after aliveAfter consecutive heartbeats.
type Liveness struct {
	// mu guards state and metrics: the coordinator delivers beats from
	// whatever goroutine a transport runs its handler on (one per HTTP
	// request) while the control loop sweeps, so the detector locks.
	mu      sync.Mutex
	state   map[string]*livenessState
	metrics *livenessMetrics
}

type livenessState struct {
	last      int // minute of the most recent beat
	misses    int // consecutive missed probes (sweeps finding it silent)
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

// The detector's paper-scale hysteresis: an entity silent for more
// than timeout minutes misses a probe each minute, deadAfter
// consecutive misses kill it, and aliveAfter consecutive beats revive
// it.
const (
	timeout    = 2
	deadAfter  = 2
	aliveAfter = 2
)

// NewLiveness returns a liveness detector tracking nothing yet.
func NewLiveness() *Liveness {
	return &Liveness{state: make(map[string]*livenessState)}
}

// Beat records a heartbeat for an entity. A beat from an entity
// currently considered dead counts toward its aliveAfter recovery
// streak — unless it is for the minute of death or earlier: that is a
// replay of traffic from before the death (a held or duplicated frame,
// a retried POST), not proof of life, and it is ignored. Sweep reports
// completed recoveries. The recorded last-seen minute is
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
		if st.successes >= aliveAfter {
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
// exhausted its deadAfter misses at the given minute. A recovered
// coordinator uses it to replay journaled liveness transitions: a host
// confirmed dead before the crash must stay demoted after the restart
// (and must still earn its aliveAfter streak to be re-pooled) instead
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
	st.misses = deadAfter
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

// Probes returns the entities to probe at the given minute: the alive
// ones whose last heartbeat is more than timeout minutes old — the
// candidates the minute's Sweep can take down — sorted, then the dead
// ones, sorted, so that an answered probe (a Beat) counts toward the
// aliveAfter recovery streak and a healed partition is noticed.
func (l *Liveness) Probes(minute int) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var silent, down []string
	for e, st := range l.state {
		switch {
		case st.dead:
			down = append(down, e)
		case minute-st.last > timeout:
			silent = append(silent, e)
		}
	}
	sort.Strings(silent)
	sort.Strings(down)
	return append(silent, down...)
}

// Down returns the entities currently considered dead, sorted.
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

// Sweep evaluates every tracked entity at the given minute in one walk
// and returns, sorted, the entities it declares dead and those that
// completed their aliveAfter recovery streak (see Beat) since the last
// sweep; the caller re-admits the latter (e.g. re-pools a demoted host).
// An alive entity silent for more than timeout minutes accrues one
// missed probe (at most one per minute) and dies at deadAfter
// consecutive misses; each death is reported once, and the entity stays
// tracked so its recovery streak can revive it. A recovery resets the
// misses to 0 and the sweep that reports it adds at most one, so no
// entity dies in the sweep that reports its recovery.
func (l *Liveness) Sweep(minute int) (dead, recovered []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for e, st := range l.state {
		if st.recovered {
			st.recovered = false
			recovered = append(recovered, e)
		}
		silent := minute-st.last > timeout
		switch {
		case st.dead:
			// A relapse into silence resets the recovery streak: the
			// aliveAfter successes must be consecutive.
			if silent {
				st.successes = 0
			}
		case silent:
			if st.missedAt != minute {
				st.misses++
				st.missedAt = minute
			}
			if st.misses >= deadAfter {
				st.dead = true
				st.successes = 0
				if l.metrics != nil {
					l.metrics.dead.Inc()
				}
				dead = append(dead, e)
			}
		}
	}
	sort.Strings(dead)
	sort.Strings(recovered)
	return dead, recovered
}
