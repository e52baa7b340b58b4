package agent

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
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
	// RoleStandby members warm-track the leader and wait for its lease
	// to lapse.
	RoleStandby memberRole = iota
	// RoleLeader members run the control plane: they merge heartbeats,
	// dispatch actions and beacon lease renewals.
	RoleLeader
	// RoleDown members are crashed processes: journal closed, transport
	// endpoint gone. They rejoin as standbys after RestartAfter minutes.
	RoleDown
)

func (r memberRole) String() string {
	switch r {
	case RoleLeader:
		return "leader"
	case RoleDown:
		return "down"
	default:
		return "standby"
	}
}

// ElectionConfig tunes a coordinator group.
type ElectionConfig struct {
	// TTL is the lease time-to-live in minutes (0: lease.DefaultTTL).
	// A leader silent for TTL consecutive minutes is presumed dead and
	// the first live standby (in member order) takes over.
	TTL int
	// RestartAfter is how many minutes a killed member stays down
	// before rejoining as a standby (0: DefaultRestartAfter).
	RestartAfter int
}

// electionMember is one coordinator of the group: the initial leader
// (member 0, the plane's original coordinator and journal) or a
// hot standby with its own journal directory nested under the leader's.
//
// Locking: mb.mu guards the member's volatile state and is the ONLY
// lock a lease hook takes — the loopback transport delivers
// synchronously in the sender's goroutine, so a hook that reached for
// the election lock while a Tick (which holds it) beacons would
// deadlock. Tick never holds any member lock across a transport call.
type electionMember struct {
	node string
	dir  string
	// coord is the member's coordinator over the SHARED deployment,
	// monitor system and liveness detector: the monitor state a leader
	// accumulates is the state its successor continues from, modelling
	// standbys that warm-replay the leader's observations. The journal
	// (dispatch state) is the part recovered by replay at takeover.
	coord *Coordinator

	mu      sync.Mutex
	cj      *CoordinatorJournal // nil while down
	tracker *lease.Tracker
	role    memberRole
	downAt  int
	// epochSeen is the highest epoch any lease traffic has carried —
	// the member's fencing knowledge even while its journal is closed.
	epochSeen uint64
	// leaderNode is who this member believes leads, per lease traffic.
	leaderNode string
}

func (m *electionMember) getRole() memberRole {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.role
}

// knownEpochLocked is the highest epoch the member can vouch for:
// its own journal's, or the highest seen in lease traffic.
func (m *electionMember) knownEpochLocked() uint64 {
	e := m.epochSeen
	if m.cj != nil {
		if je := m.cj.Epoch(); je > e {
			e = je
		}
	}
	return e
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
	p            *Plane
	restartAfter int
	metrics      *electionMetrics

	mu        sync.Mutex
	members   []*electionMember
	leader    int // index of the member the plane is wired to
	takeovers int
	fenced    int
	// floor is the newest minute any leadership merged host beats at —
	// carried into each successor's merge floor so a drained agent
	// backlog cannot double-observe minutes already in the monitor.
	floor int
}

// AttachStandbys turns the plane's coordinator into the founding
// leader of an n+1 member group: n hot standbys are created, each a
// full coordinator listening on "<node>-standby-<i>" with a journal
// directory nested inside the leader's (the journal scanner skips
// directories, so the nesting is safe). Requires an attached journal.
// The returned election must be Ticked once per minute.
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
	restart := cfg.RestartAfter
	if restart <= 0 {
		restart = DefaultRestartAfter
	}
	e := &Election{p: p, restartAfter: restart}
	p.coord.EnableHA()
	lead := &electionMember{
		node:    p.coord.Node(),
		dir:     cj.Dir(),
		coord:   p.coord,
		cj:      cj,
		tracker: lease.NewTracker(cfg.TTL),
		role:    RoleLeader,
	}
	lead.leaderNode = lead.node
	p.coord.SetLeaseHook(e.hookFor(lead))
	e.members = append(e.members, lead)
	for i := 1; i <= n; i++ {
		node := fmt.Sprintf("%s-standby-%d", p.coord.Node(), i)
		dir := filepath.Join(cj.Dir(), fmt.Sprintf("standby-%d", i))
		coord, err := NewCoordinator(node, p.dep, p.lms, p.tr, p.coord.Liveness())
		if err != nil {
			return nil, err
		}
		coord.EnableHA()
		scj, err := OpenStandbyJournal(dir, cj.Options())
		if err != nil {
			return nil, err
		}
		m := &electionMember{
			node:       node,
			dir:        dir,
			coord:      coord,
			cj:         scj,
			tracker:    lease.NewTracker(cfg.TTL),
			role:       RoleStandby,
			leaderNode: lead.node,
		}
		coord.SetLeaseHook(e.hookFor(m))
		e.members = append(e.members, m)
	}
	p.election = e
	return e, nil
}

// Election returns the plane's coordinator group, if standbys are
// attached.
func (p *Plane) Election() *Election { return p.election }

// Instrument attaches an obs registry: takeovers, per-member role
// gauges and the agent-side buffered-minute depth are published.
func (e *Election) Instrument(r *obs.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.metrics = newElectionMetrics(r)
	for _, m := range e.members {
		e.metrics.role(m.node, m.getRole() == RoleLeader)
	}
}

// Members reports the group's member nodes and roles, in member order.
func (e *Election) Members() map[string]string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]string, len(e.members))
	for _, m := range e.members {
		out[m.node] = m.getRole().String()
	}
	return out
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

// Epoch returns the current leader's journal epoch.
func (e *Election) Epoch() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := e.members[e.leader]
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cj == nil {
		return m.epochSeen
	}
	return m.cj.Epoch()
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
		known := m.knownEpochLocked()
		if l.Epoch < known {
			return wire.Lease{Leader: m.leaderNode, Epoch: known, Minute: l.Minute}
		}
		m.epochSeen = l.Epoch
		m.leaderNode = l.Leader
		m.tracker.Renew(l.Minute, l.Epoch)
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
// (the believing set is normally one; an isolated predecessor makes it
// two until its first fenced ack), and the first standby whose lease
// lapsed performs a takeover. Call before the minute's agent reports,
// so a takeover's announcement redirects reporters within the minute.
func (e *Election) Tick(ctx context.Context, minute int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, m := range e.members {
		m.mu.Lock()
		due := m.role == RoleDown && minute-m.downAt >= e.restartAfter
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
		for _, host := range e.p.dep.Cluster().Names() {
			if a, ok := e.p.agents[host]; ok {
				buffered += a.Reporter().Buffered()
			}
		}
		e.metrics.bufferedDepth(buffered)
	}
	return nil
}

// beaconLocked sends m's lease renewal to every other live member and
// to every agent, in deterministic order. An ack carrying a higher
// epoch is the fence: a successor exists, so m steps down. Callers
// hold e.mu; no member lock is held across the transport calls.
func (e *Election) beaconLocked(ctx context.Context, m *electionMember, minute int) {
	m.mu.Lock()
	l := wire.Lease{Leader: m.node, Epoch: m.knownEpochLocked(), Minute: minute}
	m.mu.Unlock()
	deposedBy := uint64(0)
	send := func(to string) {
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
	hosts := make([]string, 0, len(e.p.agents))
	for h := range e.p.agents {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		send(h)
	}
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

// takeoverLocked promotes m: the previous leadership's journal is
// warm-replayed, m's own journal durably adopts that state under a
// bumped epoch (the fence), the plane is rewired to m's coordinator
// with the merge floor carried over, journaled dead hosts and the
// active rule set are replayed, the unacked dispatches are re-issued
// through the agents' idempotency caches, and m announces itself so
// agents redirect before this minute's reports. Callers hold e.mu.
func (e *Election) takeoverLocked(ctx context.Context, m *electionMember, minute int) error {
	prev := e.members[e.leader]
	if lm := prev.coord.LastMerged(); lm > e.floor {
		e.floor = lm
	}
	ls, err := WarmReplay(prev.dir)
	if err != nil {
		return fmt.Errorf("agent: takeover warm replay: %w", err)
	}
	m.mu.Lock()
	cj := m.cj
	m.mu.Unlock()
	if cj == nil {
		return fmt.Errorf("agent: takeover by %s without an open journal", m.node)
	}
	if err := cj.Takeover(ls); err != nil {
		return fmt.Errorf("agent: takeover epoch bump: %w", err)
	}
	e.p.coord = m.coord
	m.coord.SetMergeFloor(e.floor)
	if _, _, err := e.p.adoptJournal(ctx, cj); err != nil {
		return err
	}
	m.mu.Lock()
	m.role = RoleLeader
	m.leaderNode = m.node
	m.tracker.Renew(minute, cj.Epoch())
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

// restartLocked brings a down member back as a standby: its journal
// directory is reopened without an epoch bump, its coordinator listens
// again, and its lease tracker restarts so a full TTL must pass before
// it could ever contend. Callers hold e.mu.
func (e *Election) restartLocked(m *electionMember, minute int) error {
	cj, err := OpenStandbyJournal(m.dir, e.p.disp.Journal().Options())
	if err != nil {
		return fmt.Errorf("agent: standby restart: %w", err)
	}
	if err := e.p.tr.Listen(m.node, m.coord.Handle); err != nil {
		cj.Close()
		return fmt.Errorf("agent: standby restart: %w", err)
	}
	m.mu.Lock()
	m.cj = cj
	m.role = RoleStandby
	m.tracker.Reset(minute)
	m.mu.Unlock()
	e.metrics.role(m.node, false)
	return nil
}

// KillLeader crashes the acting leader: its journal closes mid-flight
// (nothing beyond the write-ahead protocol's durability survives) and
// its transport endpoint disappears, exactly like a killed process.
// The kill is skipped (false) when no live standby could take over —
// the group would otherwise be permanently headless — or when the
// group is already leaderless. The member rejoins as a standby after
// RestartAfter minutes.
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
	m := lead
	m.mu.Lock()
	cj := m.cj
	m.cj = nil
	m.role = RoleDown
	m.downAt = minute
	m.mu.Unlock()
	if cj != nil {
		if err := cj.Close(); err != nil {
			return false, err
		}
	}
	if u, ok := e.p.tr.(interface{ Unlisten(string) error }); ok {
		if err := u.Unlisten(m.node); err != nil {
			return false, err
		}
	}
	e.metrics.role(m.node, false)
	return true, nil
}
