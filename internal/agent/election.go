package agent

import (
	"context"
	"fmt"
	"sync"

	"autoglobe/internal/lease"
	"autoglobe/internal/obs"
	"autoglobe/internal/wire"
)

// DefaultRestartAfter is how many minutes a killed coordinator member
// stays down before it rejoins the group as a standby.
const DefaultRestartAfter = 3

// memberRole is an election member's current duty.
type memberRole int

const (
	// RoleStandby members follow the leader's lease and wait for it to
	// lapse.
	RoleStandby memberRole = iota
	// RoleLeader members run the control plane: they merge heartbeats,
	// dispatch actions and beacon lease renewals.
	RoleLeader
	// RoleDown members are crashed processes: transport endpoint gone.
	// They rejoin as standbys after DefaultRestartAfter minutes.
	RoleDown
)

// ElectionConfig tunes a coordinator group.
type ElectionConfig struct {
	// TTL is the lease time-to-live in minutes (0: lease.DefaultTTL).
	// A leader silent for TTL consecutive minutes is presumed dead and
	// the first live standby (in member order) takes over.
	TTL int
}

// electionMember is one coordinator of the group: the founding leader
// (member 0, the plane's original coordinator) or a hot standby. No
// member owns a journal: the group has one, which only the member the
// plane is wired to holds open, and every takeover reopens it.
//
// Locking: mb.mu guards the member's volatile state and is the ONLY
// lock a lease hook takes — the loopback transport delivers
// synchronously in the sender's goroutine, so a hook that reached for
// the election lock while a Tick (which holds it) beacons would
// deadlock. Tick never holds any member lock across a transport call.
type electionMember struct {
	node string
	// coord is the member's coordinator over the SHARED deployment and
	// monitor system: the monitor state a leader accumulates is the state
	// its successor continues from, modelling standbys that track the
	// leader's observations. The failure detector is handed over at the
	// takeover (see takeoverLocked), and the group's journal (dispatch
	// state) is the part a takeover recovers by reopening it.
	coord *Coordinator

	mu      sync.Mutex
	tracker *lease.Tracker
	role    memberRole
	downAt  int
	// epochSeen is all the member knows of epochs: its own when it
	// founded or took over the group, raised by lease traffic carrying a
	// higher one. It fences the member's beacons and hook replies.
	epochSeen uint64
	// leaderNode is who this member believes leads, per lease traffic.
	leaderNode string
}

func (m *electionMember) getRole() memberRole {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.role
}

// Election runs lease-based leader election over a group of
// coordinators sharing one plane. It is minute-driven: the simulator
// (or a daemon's minute loop) calls Tick once per minute, before the
// agents report, and the election beacons renewals, detects expiry and
// performs takeovers inside that call — fully deterministic, no timers.
//
// Safety is epoch fencing, not timing: a takeover durably bumps the
// journal epoch, so even if a deposed leader lingers (an isolation
// rather than a crash), its sends carry a superseded epoch that agents
// NACK, and the first fenced ack it sees makes it step down to standby.
// The lease only decides WHEN a standby moves; member order decides
// WHICH standby moves (Tick scans in order and the first expired
// standby wins — a deterministic single winner with no quorum round).
type Election struct {
	p       *Plane
	metrics *electionMetrics

	mu        sync.Mutex
	members   []*electionMember
	leader    int // index of the member the plane is wired to
	takeovers int
	fenced    int
}

// AttachStandbys turns the plane's coordinator into the founding
// leader of an n+1 member group: n hot standbys are created, each a
// full coordinator listening on "<node>-standby-<i>". The group shares
// the plane's one journal, so one must be attached. The returned
// election must be Ticked once per minute.
func (p *Plane) AttachStandbys(n int, cfg ElectionConfig) (*Election, error) {
	cj := p.disp.Journal()
	if cj == nil {
		return nil, fmt.Errorf("agent: AttachStandbys without an attached journal")
	}
	if p.election != nil {
		return nil, fmt.Errorf("agent: standbys already attached")
	}
	if n < 1 {
		return nil, fmt.Errorf("agent: a coordinator group needs at least one standby")
	}
	e := &Election{p: p}
	lead := &electionMember{
		node:      p.coord.Node(),
		coord:     p.coord,
		tracker:   lease.NewTracker(cfg.TTL),
		role:      RoleLeader,
		epochSeen: cj.Epoch(),
	}
	lead.leaderNode = lead.node
	p.coord.SetLeaseHook(e.hookFor(lead))
	e.members = append(e.members, lead)
	for i := 1; i <= n; i++ {
		node := fmt.Sprintf("%s-standby-%d", p.coord.Node(), i)
		coord, err := NewCoordinator(node, p.dep, p.lms, p.tr)
		if err != nil {
			return nil, err
		}
		m := &electionMember{
			node:       node,
			coord:      coord,
			tracker:    lease.NewTracker(cfg.TTL),
			role:       RoleStandby,
			leaderNode: lead.node,
		}
		coord.SetLeaseHook(e.hookFor(m))
		e.members = append(e.members, m)
	}
	p.election = e
	e.Instrument(p.reg)
	return e, nil
}

// Election returns the plane's coordinator group, if standbys are
// attached.
func (p *Plane) Election() *Election { return p.election }

// Instrument attaches an obs registry (AttachStandbys: the plane's):
// takeovers, beacons, per-member role gauges and the agent-side
// buffered-minute depth are published.
func (e *Election) Instrument(r *obs.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.metrics = newElectionMetrics(r)
	for _, m := range e.members {
		e.metrics.role(m.node, m.getRole() == RoleLeader)
	}
}

// LeaderNode returns the node the plane is currently wired to.
func (e *Election) LeaderNode() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.members[e.leader].node
}

// LeaderAlive reports whether the wired leader is actually up. While
// false the plane is leaderless: agents buffer their minutes and the
// control loop skips coordinator work until a standby's lease expires.
func (e *Election) LeaderAlive() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.members[e.leader].getRole() == RoleLeader
}

// Takeovers counts completed leadership takeovers.
func (e *Election) Takeovers() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.takeovers
}

// FencedDepositions counts leaders that learned of their deposition
// from a fenced lease ack (an isolation survivor stepping down), as
// opposed to dying outright.
func (e *Election) FencedDepositions() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fenced
}

// hookFor builds the lease hook of one member: the coordinator routes
// incoming lease beacons here. A beacon at or above everything the
// member knows renews its tracker and records the leader — and deposes
// the member itself if it believed it led under a lower epoch. A stale
// beacon is rebuffed with the higher known epoch so the sender fences
// itself. The hook takes ONLY the member lock (see electionMember).
func (e *Election) hookFor(m *electionMember) func(wire.Lease) wire.Lease {
	return func(l wire.Lease) wire.Lease {
		m.mu.Lock()
		defer m.mu.Unlock()
		if l.Epoch < m.epochSeen {
			return wire.Lease{Leader: m.leaderNode, Epoch: m.epochSeen, Minute: l.Minute}
		}
		m.epochSeen = l.Epoch
		m.leaderNode = l.Leader
		m.tracker.Renew(l.Minute)
		if m.role == RoleLeader && l.Leader != m.node {
			// A successor with a fresher epoch exists: stand down before
			// issuing anything else under the dead incarnation.
			m.role = RoleStandby
			m.tracker.Reset(l.Minute)
			e.metrics.role(m.node, false)
		}
		return wire.Lease{Leader: l.Leader, Epoch: l.Epoch, Minute: l.Minute}
	}
}

// Tick advances the group by one minute: due members restart as
// standbys, every member still believing it leads beacons a renewal
// where it is news (the believing set is normally one; an isolated
// predecessor makes it two until its first fenced ack), and the first
// standby whose lease lapsed performs a takeover. Call before the
// minute's agent reports, so a takeover's announcement redirects
// reporters within the minute.
func (e *Election) Tick(ctx context.Context, minute int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, m := range e.members {
		m.mu.Lock()
		due := m.role == RoleDown && minute-m.downAt >= DefaultRestartAfter
		m.mu.Unlock()
		if due {
			if err := e.restartLocked(m, minute); err != nil {
				return err
			}
		}
	}
	for _, m := range e.members {
		if m.getRole() == RoleLeader {
			e.beaconLocked(ctx, m, minute)
		}
	}
	for _, m := range e.members {
		if m.getRole() != RoleStandby {
			continue
		}
		m.mu.Lock()
		expired := m.tracker.Expired(minute)
		m.mu.Unlock()
		if expired {
			if err := e.takeoverLocked(ctx, m, minute); err != nil {
				return err
			}
			break
		}
	}
	if e.metrics != nil {
		buffered := 0
		for _, a := range e.p.byHost {
			buffered += a.Reporter().Buffered()
		}
		e.metrics.bufferedDepth(buffered)
	}
	return nil
}

// beaconLocked sends m's lease renewal to every other live member (that
// is a standby's lease) and, in host order, to every agent whose beat for
// the previous minute or later did not reach m stamped with m's epoch:
// all of them in the founding minute and a takeover's announcement, then
// only those that fell silent, restarted with epoch 0 or report
// elsewhere — which still fences a deposed leader. An ack carrying a
// higher epoch is the fence: a successor exists, so m steps down.
// Callers hold e.mu; no member lock is held across the transport calls.
func (e *Election) beaconLocked(ctx context.Context, m *electionMember, minute int) {
	m.mu.Lock()
	l := wire.Lease{Leader: m.node, Epoch: m.epochSeen, Minute: minute}
	m.mu.Unlock()
	deposedBy := uint64(0)
	sent := 0
	send := func(to string) {
		sent++
		reply, err := e.p.tr.Call(ctx, to, wire.LeaseEnvelope(m.node, to, l))
		if err != nil {
			return // unreachable receiver: the lease simply is not renewed
		}
		if reply != nil && reply.Type == wire.TypeLeaseAck && reply.Lease != nil {
			if reply.Lease.Epoch > l.Epoch && reply.Lease.Epoch > deposedBy {
				deposedBy = reply.Lease.Epoch
			}
		}
		wire.ReleaseEnvelope(reply)
	}
	for _, o := range e.members {
		if o == m || o.getRole() == RoleDown {
			continue
		}
		send(o.node)
	}
	members := sent
	for _, a := range e.p.byHost {
		if !m.coord.Follows(a.host, minute-1, l.Epoch) {
			send(a.host)
		}
	}
	e.metrics.beacons(members, sent-members)
	if deposedBy > 0 {
		m.mu.Lock()
		if m.role == RoleLeader {
			m.role = RoleStandby
			if deposedBy > m.epochSeen {
				m.epochSeen = deposedBy
			}
			m.tracker.Reset(minute)
			e.fenced++
			e.metrics.role(m.node, false)
		}
		m.mu.Unlock()
	}
}

// takeoverLocked promotes m the way every incarnation begins: the
// group's journal is reopened under a bumped epoch (the fence) — a
// failed reopen returns before anything is rewired — the plane is
// rewired to m's coordinator, its floor read from the shared archive so
// a drained agent backlog cannot double-observe a minute already in the
// monitor, the predecessor's failure detector copied into m's host
// slots, and adoptJournal recovers: journaled dead hosts re-marked over
// that copy and the unacked dispatches re-issued through the agents'
// idempotency caches.
// m then announces itself so agents redirect before this minute's
// reports. Callers hold e.mu.
func (e *Election) takeoverLocked(ctx context.Context, m *electionMember, minute int) error {
	cj, err := e.p.reopenJournal()
	if err != nil {
		return fmt.Errorf("agent: takeover by %s: %w", m.node, err)
	}
	m.coord.adoptLiveness(e.p.coord)
	e.p.coord = m.coord
	m.coord.resetFloor()
	if _, _, err := e.p.adoptJournal(ctx, cj); err != nil {
		return err
	}
	m.mu.Lock()
	m.role = RoleLeader
	m.leaderNode = m.node
	m.epochSeen = cj.Epoch()
	m.tracker.Renew(minute)
	m.mu.Unlock()
	for i, o := range e.members {
		if o == m {
			e.leader = i
		}
	}
	e.takeovers++
	e.metrics.takeover()
	e.metrics.role(m.node, true)
	e.beaconLocked(ctx, m, minute)
	return nil
}

// restartLocked brings a down member back as a standby: its coordinator
// listens again, and its lease tracker restarts so a full TTL must pass
// before it could ever contend. Callers hold e.mu.
func (e *Election) restartLocked(m *electionMember, minute int) error {
	if err := e.p.tr.Listen(m.node, m.coord.Handle); err != nil {
		return fmt.Errorf("agent: standby restart: %w", err)
	}
	m.mu.Lock()
	m.role = RoleStandby
	m.tracker.Reset(minute)
	m.mu.Unlock()
	e.metrics.role(m.node, false)
	return nil
}

// KillLeader crashes the acting leader: the group's journal closes mid-flight
// (nothing beyond the write-ahead protocol's durability survives) and
// its transport endpoint disappears, exactly like a killed process.
// The kill is skipped (false) when no live standby could take over —
// the group would otherwise be permanently headless — or when the
// group is already leaderless. The member rejoins as a standby after
// DefaultRestartAfter minutes.
func (e *Election) KillLeader(minute int) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	lead := e.members[e.leader]
	if lead.getRole() != RoleLeader {
		return false, nil
	}
	standbys := 0
	for _, m := range e.members {
		if m != lead && m.getRole() == RoleStandby {
			standbys++
		}
	}
	if standbys == 0 {
		return false, nil
	}
	lead.mu.Lock()
	lead.role = RoleDown
	lead.downAt = minute
	lead.mu.Unlock()
	if err := e.p.disp.Journal().Close(); err != nil {
		return false, err
	}
	if err := e.p.tr.Unlisten(lead.node); err != nil {
		return false, err
	}
	e.metrics.role(lead.node, false)
	return true, nil
}
