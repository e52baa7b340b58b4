package simulator

import (
	"context"
	"fmt"
	"math"

	"autoglobe/internal/agent"
	"autoglobe/internal/wire"
)

// Injector schedules fault injections against a distributed run. The
// chaos package's Driver implements it; the interface keeps the
// simulator from depending on the fault scheduler (the simulator only
// promises to call Apply at every minute boundary, before any
// heartbeat or dispatch of the minute).
type Injector interface {
	// Apply fires every injection scheduled at or before the step. An
	// error aborts the run.
	Apply(step int) error
}

// DistributedConfig runs the simulation over the real control plane
// instead of in-process function calls: every host gets an agent, the
// load observations travel as heartbeat messages to the coordinator,
// and every controller decision is dispatched to the affected host
// agents (with retries, idempotency and compensation) before it is
// applied to the model. With a fault-free transport the run is
// byte-identical to the in-process simulation — same triggers, same
// decisions, same action log — which is the correctness argument for
// the whole wire layer. With faults injected (drops, latency,
// partitions on a wire.Loopback) the run exercises the failure
// machinery: lost heartbeats feed the hysteresis liveness detector,
// dead hosts are demoted and their services restarted elsewhere,
// healed partitions re-pool the host.
type DistributedConfig struct {
	// Transport carries heartbeats, actions and probes (required).
	// wire.NewLoopback() keeps the run deterministic; wire.NewHTTP
	// moves the same bytes over real sockets.
	Transport wire.Transport
	// Dispatch tunes the action dispatcher (timeouts, retry budget,
	// backoff). The zero value uses the dispatcher defaults.
	Dispatch agent.DispatchConfig
	// JournalDir, when non-empty, makes the coordinator crash-safe: a
	// write-ahead action journal is opened (or recovered) there before
	// the run starts, every dispatched action is journaled ahead of the
	// transport, and agents fence superseded coordinator epochs. See
	// agent.Plane.AttachJournal.
	JournalDir string
	// Chaos, when set, injects faults at every minute boundary — before
	// any heartbeat or dispatch of the minute, so a coordinator crash
	// never lands mid-transaction. See the chaos package.
	Chaos Injector
	// Standbys, when positive, attaches that many hot-standby
	// coordinators (requires JournalDir): the plane runs lease-based
	// leader election, a killed or isolated leader is replaced after
	// the lease TTL, and agents buffer their heartbeat minutes through
	// the leaderless window. See agent.Election.
	Standbys int
	// LeaseTTL is the leadership lease time-to-live in minutes
	// (0: lease.DefaultTTL).
	LeaseTTL int
}

// Plane exposes the control plane of a distributed run (nil otherwise).
func (s *Simulator) Plane() *agent.Plane { return s.mgr.Plane }

// report is the simulator's stage of agent.Manager.Minute: the load the
// in-process loop would observe directly leaves each host as one
// heartbeat. Hosts report in cluster order and instances in ID order —
// the order the in-process loop iterates and the coordinator's canonical
// merge reproduces — so a fault-free run's triggers are byte-identical.
func (s *Simulator) report(ctx context.Context, minute int) error {
	for _, h := range s.hosts {
		raw, mem := s.hostRaw(h)
		rep, ok := s.mgr.Plane.Reporter(h.name)
		if !ok {
			return fmt.Errorf("simulator: no agent attached for host %q", h.name)
		}
		// The reporter batches the minute's instance samples into one
		// reusable envelope — the steady-state heartbeat path allocates
		// nothing (see agent.HeartbeatReporter).
		rep.Begin(minute, math.Min(1, raw), mem)
		for _, inst := range s.dep.InstancesOn(h.name) {
			rep.Sample(inst.ID, inst.Service, math.Min(1, s.demandOf(inst)/h.perf))
		}
		// A delivery failure is not a run error: a missed heartbeat is
		// exactly the signal the liveness detector consumes. The minute's
		// context bounds the send; the in-process loopback delivers at
		// once.
		_ = rep.Send(ctx)
	}
	return nil
}
