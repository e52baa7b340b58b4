// Package chaos is the deterministic fault scheduler of the
// reproduction's robustness harness: from a seed it derives a fixed
// plan of fault injections — coordinator crashes, duplicated
// deliveries, held-and-released messages (delay/reorder), host
// partitions with heals — and a Driver applies the plan minute by
// minute against a wire.Loopback network and a crash callback.
//
// Determinism is the point. The paper argues the autonomic controller
// must ride out "failure situations like a program crash" without an
// administrator; proving that in tests requires the failure schedule
// itself to be replayable, so a failing run can be re-run bit-for-bit
// from its seed. Everything here is pure function of (seed, steps,
// hosts, profile): no wall clock, no global randomness.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"autoglobe/internal/obs"
	"autoglobe/internal/wire"
)

// Kind enumerates the injectable fault kinds.
type Kind string

// The fault kinds of the chaos plan.
const (
	// KindCrash kills and restarts the coordinator: the journal is
	// reopened under a bumped epoch and recovery re-issues the pending
	// actions (see agent.Plane.CrashCoordinator).
	KindCrash Kind = "crash"
	// KindDuplicate makes the next delivery to the host run through its
	// handler twice — the replayed-packet fault the idempotency cache
	// absorbs.
	KindDuplicate Kind = "duplicate"
	// KindHold parks the next delivery to the host; the sender times out
	// and retries while the original waits for its KindRelease.
	KindHold Kind = "hold"
	// KindRelease delivers every message held for the host — stale
	// traffic arriving long after its senders gave up.
	KindRelease Kind = "release"
	// KindIsolate partitions the host from the network.
	KindIsolate Kind = "isolate"
	// KindHeal reconnects a partitioned host.
	KindHeal Kind = "heal"
	// KindKillLeader crashes the acting leader of a coordinator group:
	// journal closed mid-flight, transport endpoint gone. A standby's
	// lease expires and it takes over (see agent.Election). Skipped when
	// the run has no coordinator group or no live standby.
	KindKillLeader Kind = "killLeader"
	// KindIsolateLeader partitions the acting leader WITHOUT killing it —
	// the split-brain drill: a successor is elected while the old leader
	// still believes it leads, and only epoch fencing keeps the deposed
	// incarnation harmless once the partition heals.
	KindIsolateLeader Kind = "isolateLeader"
	// KindHealLeader reconnects the leader isolated by the paired
	// KindIsolateLeader injection.
	KindHealLeader Kind = "healLeader"
)

// Injection is one scheduled fault.
type Injection struct {
	// Step is the simulated minute the fault fires at.
	Step int
	// Kind is the fault kind.
	Kind Kind
	// Host is the affected transport node (empty for KindCrash).
	Host string
	// N scales count-based faults (duplicates, holds); minimum 1.
	N int
}

// Profile tunes the per-step fault probabilities of a plan.
type Profile struct {
	// CrashRate is the per-step probability of a coordinator crash.
	CrashRate float64
	// DuplicateRate is the per-step probability of scheduling a
	// duplicated delivery to a random host.
	DuplicateRate float64
	// HoldRate is the per-step probability of parking a delivery to a
	// random host, released HoldSteps later.
	HoldRate float64
	// PartitionRate is the per-step probability of isolating a random
	// host, healed PartitionSteps later.
	PartitionRate float64
	// PartitionSteps is how many steps an isolation lasts (default 1 —
	// shorter than the liveness timeout, so flaps are absorbed by the
	// hysteresis rather than demoting the host).
	PartitionSteps int
	// HoldSteps is how many steps a held message stays parked
	// (default 2).
	HoldSteps int
	// KillLeaderRate is the per-step probability of crashing the acting
	// leader of a coordinator group (no-op without one).
	KillLeaderRate float64
	// IsolateLeaderRate is the per-step probability of partitioning the
	// acting leader without killing it, healed IsolateLeaderSteps later.
	IsolateLeaderRate float64
	// IsolateLeaderSteps is how long a leader isolation lasts (default
	// 4 — longer than the lease TTL, so a successor is always elected
	// and the deposed leader must be fenced when the partition heals).
	IsolateLeaderSteps int
	// QuietTail is how many trailing steps inject nothing, giving the
	// landscape time to converge before it is compared against the
	// fault-free run (default 0; convergence tests set it).
	QuietTail int
}

// DefaultProfile is a moderate fault load that a healthy control plane
// must absorb without any landscape-visible damage: flapping links
// below the liveness hysteresis, replayed packets, delayed deliveries,
// and the occasional coordinator crash.
func DefaultProfile() Profile {
	return Profile{
		CrashRate:          0.01,
		DuplicateRate:      0.05,
		HoldRate:           0.03,
		PartitionRate:      0.01,
		PartitionSteps:     1,
		HoldSteps:          2,
		KillLeaderRate:     0.005,
		IsolateLeaderRate:  0.002,
		IsolateLeaderSteps: 4,
		QuietTail:          60,
	}
}

func (p Profile) partitionSteps() int {
	if p.PartitionSteps <= 0 {
		return 1
	}
	return p.PartitionSteps
}

func (p Profile) holdSteps() int {
	if p.HoldSteps <= 0 {
		return 2
	}
	return p.HoldSteps
}

func (p Profile) isolateLeaderSteps() int {
	if p.IsolateLeaderSteps <= 0 {
		return 4
	}
	return p.IsolateLeaderSteps
}

// NewPlan derives the deterministic injection plan for a run of the
// given length: same seed, steps, hosts and profile — same plan,
// always. The returned plan is sorted by step (stable, so paired
// faults keep their scheduling order).
func NewPlan(seed uint64, steps int, hosts []string, p Profile) []Injection {
	rng := rand.New(rand.NewSource(int64(seed)))
	var plan []Injection
	active := steps - p.QuietTail
	for step := 0; step < active; step++ {
		if p.CrashRate > 0 && rng.Float64() < p.CrashRate {
			plan = append(plan, Injection{Step: step, Kind: KindCrash})
		}
		if len(hosts) == 0 {
			continue
		}
		if p.DuplicateRate > 0 && rng.Float64() < p.DuplicateRate {
			plan = append(plan, Injection{
				Step: step, Kind: KindDuplicate, Host: hosts[rng.Intn(len(hosts))], N: 1})
		}
		if p.HoldRate > 0 && rng.Float64() < p.HoldRate {
			h := hosts[rng.Intn(len(hosts))]
			plan = append(plan,
				Injection{Step: step, Kind: KindHold, Host: h, N: 1},
				Injection{Step: step + p.holdSteps(), Kind: KindRelease, Host: h})
		}
		if p.PartitionRate > 0 && rng.Float64() < p.PartitionRate {
			h := hosts[rng.Intn(len(hosts))]
			plan = append(plan,
				Injection{Step: step, Kind: KindIsolate, Host: h},
				Injection{Step: step + p.partitionSteps(), Kind: KindHeal, Host: h})
		}
		// Leader-fault draws come last and only when their rate is set,
		// so a profile with zero leader rates reproduces its pre-HA plan
		// bit for bit.
		if p.KillLeaderRate > 0 && rng.Float64() < p.KillLeaderRate {
			plan = append(plan, Injection{Step: step, Kind: KindKillLeader})
		}
		if p.IsolateLeaderRate > 0 && rng.Float64() < p.IsolateLeaderRate {
			plan = append(plan,
				Injection{Step: step, Kind: KindIsolateLeader},
				Injection{Step: step + p.isolateLeaderSteps(), Kind: KindHealLeader})
		}
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].Step < plan[j].Step })
	return plan
}

// Driver applies a plan against a loopback network, one simulated
// minute at a time. It is safe for concurrent use.
type Driver struct {
	// Crash, when set, is invoked for KindCrash injections (typically
	// agent.Plane.CrashCoordinator). Nil skips crash injections.
	Crash func() error
	// KillLeader, when set, is invoked for KindKillLeader injections
	// with the firing step (typically agent.Election.KillLeader). A
	// false return means the kill was skipped (no live standby) and it
	// is not counted as applied. Nil skips kill-leader injections.
	KillLeader func(step int) (bool, error)
	// Leader, when set, names the acting leader's transport node —
	// resolved at injection time for KindIsolateLeader. Nil skips
	// leader isolations.
	Leader func() string

	mu      sync.Mutex
	net     *wire.Loopback
	plan    []Injection
	next    int
	applied map[Kind]int
	// isolatedLeaders queues the nodes isolated by KindIsolateLeader,
	// healed FIFO by the paired KindHealLeader.
	isolatedLeaders []string
	metrics         *chaosMetrics
}

// NewDriver builds a driver for the plan over the loopback network. The
// network may be nil at construction and attached later with Bind.
func NewDriver(plan []Injection, net *wire.Loopback) *Driver {
	return &Driver{net: net, plan: plan, applied: make(map[Kind]int)}
}

// Instrument attaches an obs registry: applied injections are counted
// by kind. A nil registry leaves the driver uninstrumented.
func (d *Driver) Instrument(r *obs.Registry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.metrics = newChaosMetrics(r)
}

// Apply fires every injection scheduled at or before the given step
// that has not fired yet. A crash callback error aborts the run — a
// coordinator that cannot recover is a real failure, not a fault.
func (d *Driver) Apply(step int) error {
	d.mu.Lock()
	var due []Injection
	for d.next < len(d.plan) && d.plan[d.next].Step <= step {
		due = append(due, d.plan[d.next])
		d.next++
	}
	net, crash, m := d.net, d.Crash, d.metrics
	killLeader, leader := d.KillLeader, d.Leader
	d.mu.Unlock()

	for _, in := range due {
		n := in.N
		if n < 1 {
			n = 1
		}
		if net == nil && in.Kind != KindCrash && in.Kind != KindKillLeader {
			return fmt.Errorf("chaos: step %d: %s injection without a bound network", in.Step, in.Kind)
		}
		switch in.Kind {
		case KindCrash:
			if crash == nil {
				continue // no coordinator to crash in this run
			}
			if err := crash(); err != nil {
				return fmt.Errorf("chaos: step %d: coordinator did not recover: %w", in.Step, err)
			}
		case KindKillLeader:
			if killLeader == nil {
				continue // no coordinator group in this run
			}
			killed, err := killLeader(in.Step)
			if err != nil {
				return fmt.Errorf("chaos: step %d: kill leader: %w", in.Step, err)
			}
			if !killed {
				continue // no live standby: the kill would be permanent
			}
		case KindIsolateLeader:
			if leader == nil {
				continue
			}
			node := leader()
			if node == "" {
				continue
			}
			net.Isolate(node)
			d.mu.Lock()
			d.isolatedLeaders = append(d.isolatedLeaders, node)
			d.mu.Unlock()
		case KindHealLeader:
			d.mu.Lock()
			var node string
			if len(d.isolatedLeaders) > 0 {
				node = d.isolatedLeaders[0]
				d.isolatedLeaders = d.isolatedLeaders[1:]
			}
			d.mu.Unlock()
			if node == "" {
				continue // the paired isolation was skipped
			}
			net.Heal(node)
		case KindDuplicate:
			net.DuplicateNext(in.Host, n)
		case KindHold:
			net.HoldNext(in.Host, n)
		case KindRelease:
			net.DeliverHeld(in.Host)
		case KindIsolate:
			net.Isolate(in.Host)
		case KindHeal:
			net.Heal(in.Host)
		default:
			return fmt.Errorf("chaos: unknown injection kind %q", in.Kind)
		}
		d.mu.Lock()
		d.applied[in.Kind]++
		d.mu.Unlock()
		m.injected(in.Kind)
	}
	return nil
}

// Stats returns how many injections of each kind have been applied.
func (d *Driver) Stats() map[Kind]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[Kind]int, len(d.applied))
	for k, v := range d.applied {
		out[k] = v
	}
	return out
}

// Remaining reports how many scheduled injections have not fired yet.
func (d *Driver) Remaining() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.plan) - d.next
}
