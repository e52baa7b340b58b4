package agent

import (
	"context"
	"slices"
	"strings"
	"time"

	"autoglobe/internal/obs"
	"autoglobe/internal/wire"
)

// The coordinator detects failure situations ("like a program crash")
// through missed heartbeats: every load monitor's report doubles as a
// heartbeat, and a host silent too long is declared dead, for the
// controller to remedy. A flapping host — a congested link delivering
// every other beat — would make a naive detector oscillate, causing
// churn exactly like the short load peaks watchTime filters, so the
// detector applies the same hysteresis: a host dies only after deadAfter
// consecutive missed probes (minutes that find it silent for more than
// liveTimeout minutes), and a dead host is re-admitted only after
// aliveAfter consecutive beats. The state is part of each host slot,
// under ingestMu, so a heartbeat takes one lock.
const (
	liveTimeout  = 2
	deadAfter    = 2
	aliveAfter   = 2
	probeTimeout = time.Second // bounds one liveness probe
)

// liveState is one host's failure-detector state.
type liveState struct {
	tracked   bool // a beat or a journaled death started it; Release ends it
	dead      bool
	recovered bool // completed a recovery streak, not yet reported
	last      int  // minute of the most recent beat
	misses    int  // consecutive missed probes
	missedAt  int  // minute of the last counted miss; while dead, the minute of death
	successes int  // consecutive beats while dead
}

// beatLocked records a heartbeat, or an answered probe, of a host at
// minute; the first beat of an untracked host starts tracking it. A beat
// from a dead host counts toward its aliveAfter recovery streak — unless
// it is for the minute of death or earlier: that is a replay of traffic
// from before the death (a held or duplicated frame, a retried POST),
// not proof of life. The last-seen minute is monotone: an agent
// restarted with a fresh local counter must not rewind a host that a
// probe (stamped with the coordinator's clock) already confirmed alive.
// Callers hold c.ingestMu.
func (c *Coordinator) beatLocked(hs *hostSlot, minute int) {
	st := &hs.liveState
	switch {
	case !st.tracked:
		*st = liveState{tracked: true, last: minute, missedAt: -1}
		return
	case st.dead && minute <= st.missedAt:
		return
	}
	st.last = max(st.last, minute)
	if !st.dead {
		st.misses = 0
		return
	}
	if st.successes++; st.successes >= aliveAfter {
		*st = liveState{tracked: true, recovered: true, last: st.last, missedAt: -1}
		c.recoveries.Inc()
	}
}

// CheckLiveness probes the hosts that stayed silent this minute — and
// the hosts already considered dead, so a healed partition is noticed —
// and returns the hosts newly confirmed dead (after two consecutive
// misses, probes included) and those newly recovered (after two
// consecutive answered probes). A probe answer counts as a
// beat: a host whose heartbeats are lost but which still answers probes
// is degraded, not dead.
func (c *Coordinator) CheckLiveness(ctx context.Context, minute int) (dead, recovered []string) {
	for _, hs := range c.probes(minute) {
		probeCtx, cancel := context.WithTimeout(ctx, probeTimeout)
		reply, err := c.tr.Call(probeCtx, hs.name,
			wire.ProbeEnvelope(c.node, hs.name, wire.Probe{Host: hs.name, Minute: minute}))
		cancel()
		if err == nil && reply != nil && reply.Type == wire.TypeProbeAck {
			c.ingestMu.Lock()
			c.beatLocked(hs, minute)
			c.ingestMu.Unlock()
		}
		wire.ReleaseEnvelope(reply)
	}
	dead, recovered = c.sweep(minute)
	c.mu.Lock()
	cj := c.journal
	c.mu.Unlock()
	if cj != nil {
		// Liveness transitions are journaled AFTER detection but before
		// the caller acts on them: a crash between the two leaves a
		// journaled death whose demotion never ran — recovery re-reports
		// it via DownHosts and the demotion is re-planned (demoting an
		// already-demoted host is a no-op at the model layer).
		for _, h := range dead {
			if err := cj.LogLiveness(h, true, minute); err != nil && c.noteErr(err) {
				break
			}
		}
		for _, h := range recovered {
			if err := cj.LogLiveness(h, false, minute); err != nil && c.noteErr(err) {
				break
			}
		}
	}
	return dead, recovered
}

// probes lists the hosts to probe at minute: the alive ones silent for
// more than liveTimeout minutes — those the sweep can take down — then
// the dead ones, so that an answered probe counts toward the recovery
// streak; each part sorted by name.
func (c *Coordinator) probes(minute int) []*hostSlot {
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	var silent, down []*hostSlot
	for _, hs := range c.slots {
		if hs.dead {
			down = append(down, hs)
		} else if hs.tracked && minute-hs.last > liveTimeout {
			silent = append(silent, hs)
		}
	}
	slices.SortFunc(silent, bySlotName)
	slices.SortFunc(down, bySlotName)
	return append(silent, down...)
}

func bySlotName(a, b *hostSlot) int { return strings.Compare(a.name, b.name) }

// sweep judges every tracked host at minute in one walk and returns,
// sorted, the hosts it declares dead and those that completed their
// recovery streak since the last sweep. A silent alive host accrues at
// most one miss a minute and dies at deadAfter consecutive misses; each
// death is reported once, and the host stays tracked so its streak can
// revive it. A recovery resets the misses to 0, and the sweep that
// reports it adds at most one, so no host dies in that sweep.
func (c *Coordinator) sweep(minute int) (dead, recovered []string) {
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	for _, hs := range c.slots {
		st := &hs.liveState
		if st.recovered {
			st.recovered = false
			recovered = append(recovered, hs.name)
		}
		silent := st.tracked && minute-st.last > liveTimeout
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
				st.dead, st.successes = true, 0
				c.deaths.Inc()
				dead = append(dead, hs.name)
			}
		}
	}
	slices.Sort(dead)
	slices.Sort(recovered)
	return dead, recovered
}

// adoptLiveness hands the predecessor's failure detector to c at a
// takeover: every host's state and the transition counters. A host the
// predecessor does not track is untracked here too. Nothing else holds
// two coordinators' locks.
func (c *Coordinator) adoptLiveness(pred *Coordinator) {
	pred.ingestMu.Lock()
	defer pred.ingestMu.Unlock()
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	for _, hs := range c.slots {
		hs.liveState = liveState{}
	}
	for _, ps := range pred.slots {
		if ps.tracked {
			c.slotLocked(ps.name).liveState = ps.liveState
		}
	}
	c.deaths, c.recoveries = pred.deaths, pred.recoveries
}

// liveness is the coordinator seen as its host failure detector, for
// the console, the journal replay and instrumentation. It holds no state
// of its own.
type liveness Coordinator

// Liveness returns the coordinator's host failure detector.
func (c *Coordinator) Liveness() *liveness { return (*liveness)(c) }

// Instrument counts the detector's death and recovery transitions in r.
// A nil registry detaches.
func (l *liveness) Instrument(r *obs.Registry) {
	r.Help(MetricLiveness, "Liveness transitions, by direction.")
	l.ingestMu.Lock()
	defer l.ingestMu.Unlock()
	l.deaths = r.Counter(MetricLiveness, "transition", "dead")
	l.recoveries = r.Counter(MetricLiveness, "transition", "recovered")
}

// MarkDead seeds a host into the dead state, as if it had exhausted its
// misses at minute: the journal replay keeps a host confirmed dead
// before a crash demoted after it, and it must still earn its recovery
// streak.
func (l *liveness) MarkDead(host string, minute int) {
	c := (*Coordinator)(l)
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	c.slotLocked(host).liveState = liveState{tracked: true, dead: true, last: minute, misses: deadAfter, missedAt: minute}
}

// Tracking reports whether the host is watched and considered alive.
func (l *liveness) Tracking(host string) bool {
	l.ingestMu.Lock()
	defer l.ingestMu.Unlock()
	hs := l.hosts[host]
	return hs != nil && hs.tracked && !hs.dead
}

// Down returns the hosts currently considered dead, sorted.
func (l *liveness) Down() []string {
	l.ingestMu.Lock()
	defer l.ingestMu.Unlock()
	var out []string
	for _, hs := range l.slots {
		if hs.dead {
			out = append(out, hs.name)
		}
	}
	slices.Sort(out)
	return out
}
