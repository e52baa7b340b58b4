// Package lease implements the minute-driven leadership lease a
// standby coordinator tracks its leader by. The control plane already
// beats once per coordinated minute (heartbeats, liveness, triggers),
// so the lease clock is the same simulated minute — no wall-clock
// timers, which keeps failover deterministic under the simulator and
// the chaos harness.
//
// The protocol is deliberately small: the acting leader beacons a
// lease-renewal envelope to every standby every minute (agents get one
// only when their own heartbeat, stamped with the epoch they know, did
// not show they follow the leader already); a standby that has not heard a
// renewal for TTL consecutive minutes declares the lease expired and
// takes over. Safety does not rest on the timing — epoch fencing does
// that (see DESIGN.md "Coordinator HA") — the lease only decides WHEN
// a standby moves, so staggered TTLs give a deterministic single
// winner without a quorum protocol.
package lease

// DefaultTTL is the default lease time-to-live in minutes: a leader
// silent for this many consecutive minutes is presumed dead.
const DefaultTTL = 2

// Tracker follows one leader's lease from a standby's point of view.
// It is minute-driven and not safe for concurrent use; callers
// serialize on the election member's lock.
type Tracker struct {
	ttl       int
	lastRenew int
	epoch     uint64
	renewed   bool
}

// NewTracker returns a tracker with the given TTL in minutes
// (0 or negative: DefaultTTL).
func NewTracker(ttl int) *Tracker {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Tracker{ttl: ttl}
}

// TTL returns the tracker's time-to-live in minutes.
func (t *Tracker) TTL() int { return t.ttl }

// Renew records a lease renewal observed at the given minute carrying
// the leader's epoch. Renewals never move the clock backwards.
func (t *Tracker) Renew(minute int, epoch uint64) {
	if epoch > t.epoch {
		t.epoch = epoch
	}
	if t.renewed && minute < t.lastRenew {
		return
	}
	t.lastRenew = minute
	t.renewed = true
}

// Epoch returns the highest leader epoch a renewal has carried.
func (t *Tracker) Epoch() uint64 { return t.epoch }

// Expired reports whether the lease has lapsed at the given minute: no
// renewal has arrived within the last TTL minutes. A tracker that has
// never seen a renewal measures from minute zero, so a standby started
// against a dead leader still takes over.
func (t *Tracker) Expired(minute int) bool {
	last := 0
	if t.renewed {
		last = t.lastRenew
	}
	return minute-last >= t.ttl
}

// Reset forgets every renewal, restarting the TTL window at the given
// minute — called when a member (re)enters standby so a stale renewal
// history cannot trigger an instant takeover.
func (t *Tracker) Reset(minute int) {
	t.lastRenew = minute
	t.renewed = true
	t.epoch = 0
}
