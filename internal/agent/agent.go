// Package agent implements AutoGlobe's distributed control plane: a
// per-host agent daemon, the coordinator that feeds agent telemetry
// into the monitoring pipeline, and a fault-tolerant action dispatcher
// that carries controller decisions to the agents over a wire.Transport.
//
// The paper's controller administered its blade landscape through
// ServiceGlobe's network substrate: load monitors on every host report
// to the central load monitoring system, and the fuzzy controller's
// remedy actions travel back to the affected hosts. This package is
// that substrate for the reproduction. The logic is transport-agnostic
// — a full monitor → controller → action round trip behaves identically
// over the in-memory loopback and over TCP, because everything above
// wire.Transport is shared.
//
// Layers, bottom up:
//
//   - Agent: one per service host. Receives action requests (start,
//     stop, bind, unbind, priority), applies them to its host-local
//     process table, and acknowledges. An idempotency cache makes
//     re-delivered requests (lost acks) safe, and per-action deadlines
//     reject requests the coordinator has already given up on.
//   - Dispatcher: the coordinator's sending half. Per-attempt timeouts,
//     bounded exponential backoff with deterministic jitter, and a
//     permanent/transient failure distinction (an agent's NACK is
//     final; a vanished message is retried).
//   - DispatchExecutor: a controller.Executor that decomposes each
//     decision into per-host operations, dispatches them inside a
//     compensating transaction (txn), and only then applies the
//     decision to the authoritative model — a partial compound failure
//     mid-network is rolled back on the hosts that already acted.
//   - Coordinator: the receiving half. Ingests heartbeats into the
//     monitor pipeline (advisors and watchTime unchanged), tracks host
//     liveness with hysteresis, probes silent hosts before declaring
//     them dead, and hands confirmed triggers to the caller.
//   - Plane: wires a coordinator and one agent per cluster host over a
//     single transport.
package agent

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"autoglobe/internal/obs"
	"autoglobe/internal/wire"
)

// CoordinatorNode is the transport node name of the coordinator.
const CoordinatorNode = "coordinator"

// proc is one entry of the agent's host-local process table.
type proc struct {
	service  string
	priority int
}

// ackCacheCap bounds the agent's idempotency cache: the most recent
// terminal answers are kept, oldest evicted first. The dispatcher's
// key-recycling freelist is calibrated against exactly this capacity
// (see keyReuseLag) — a key is only ever reused once this many younger
// answers guarantee its eviction, so a recycled key can never be
// answered from a stale cache line. The cache grows on demand and a
// quiet agent never pays for the full capacity.
const ackCacheCap = 4096

// agentLogCap bounds the audit trail: the most recent applied
// operations are kept in a ring. Like the ack cache it grows on
// demand; long-running agents stop growing instead of leaking.
const agentLogCap = 16384

// logEntry is one audit-trail record, kept as fields instead of a
// formatted string so the steady-state apply path does not allocate.
type logEntry struct {
	op wire.Op
	id string
}

// Agent is the per-host daemon of the control plane. It listens on the
// transport under its host name, executes controller-issued operations
// against its local process table, and reports load through heartbeats.
// It is safe for concurrent use.
type Agent struct {
	host        string
	coordinator string
	tr          wire.Transport

	// Now is the agent's clock, replaceable in tests to exercise
	// per-action deadlines.
	Now func() time.Time

	mu    sync.Mutex
	procs map[string]proc
	// Idempotency cache: terminal answers by action key, bounded to the
	// newest ackCacheCap entries. ackSeq is the eviction ring — it grows
	// by appending until the cap, then wraps, overwriting the oldest
	// key's slot (and deleting it from acks) as each new answer lands.
	acks    map[string]wire.ActionAck
	ackSeq  []string
	ackHead int
	// Audit trail of applied operations: a grow-then-wrap ring of the
	// newest agentLogCap entries.
	log     []logEntry
	logHead int
	seq     uint64

	// coordEpoch is the highest coordinator incarnation observed on an
	// action envelope. Requests carrying a lower epoch are NACKed: they
	// come from a superseded (crashed or partitioned-away) coordinator
	// that must not mutate a host the new incarnation administers.
	coordEpoch   uint64
	staleNacks   int
	epochRejects *obs.Counter

	failNextOp  wire.Op // test/fault hook: NACK the next matching op
	failNextMsg string

	reporter *HeartbeatReporter
}

// NewAgent starts an agent for the host on the transport, listening
// under the host's name. The coordinator node name is where heartbeats
// are sent.
func NewAgent(host, coordinator string, tr wire.Transport) (*Agent, error) {
	if host == "" {
		return nil, fmt.Errorf("agent: empty host name")
	}
	a := &Agent{
		host:        host,
		coordinator: coordinator,
		tr:          tr,
		Now:         time.Now,
		procs:       make(map[string]proc),
		acks:        make(map[string]wire.ActionAck),
	}
	if err := tr.Listen(host, a.Handle); err != nil {
		return nil, err
	}
	return a, nil
}

// Host returns the agent's host name.
func (a *Agent) Host() string { return a.host }

// Instrument attaches an obs registry: stale-epoch rejections are
// counted. A nil registry leaves the agent uninstrumented.
func (a *Agent) Instrument(r *obs.Registry) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if r == nil {
		a.epochRejects = nil
		return
	}
	r.Help(MetricEpochRejections, "Action requests NACKed for carrying a superseded coordinator epoch.")
	a.epochRejects = r.Counter(MetricEpochRejections)
}

// CoordEpoch returns the highest coordinator epoch the agent has seen.
func (a *Agent) CoordEpoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.coordEpoch
}

// StaleNacks returns how many action requests were rejected for
// carrying a superseded coordinator epoch.
func (a *Agent) StaleNacks() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.staleNacks
}

// Adopt seeds the process table with an already-running instance (the
// initial allocation existed before the control plane attached).
func (a *Agent) Adopt(instanceID, svc string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.procs[instanceID] = proc{service: svc}
}

// Running returns whether the instance is in the local process table.
func (a *Agent) Running(instanceID string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.procs[instanceID]
	return ok
}

// Procs returns the number of instances in the local process table.
func (a *Agent) Procs() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.procs)
}

// Instances returns a snapshot of the process table, instance ID →
// service name — what a host daemon reports in its heartbeats.
func (a *Agent) Instances() map[string]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]string, len(a.procs))
	for id, p := range a.procs {
		out[id] = p.service
	}
	return out
}

// Log returns the audit trail of applied (non-duplicate) operations,
// oldest first, one "op instanceID" entry per application. The trail is
// bounded: only the newest agentLogCap applications are retained.
func (a *Agent) Log() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.log))
	for i := a.logHead; i < len(a.log); i++ {
		out = append(out, string(a.log[i].op)+" "+a.log[i].id)
	}
	for i := 0; i < a.logHead; i++ {
		out = append(out, string(a.log[i].op)+" "+a.log[i].id)
	}
	return out
}

// FailNext makes the agent reject the next request carrying the given
// op with the message — a fault hook for partial-compound-failure
// tests (the real-world analogue: the host-local start script fails).
func (a *Agent) FailNext(op wire.Op, msg string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.failNextOp, a.failNextMsg = op, msg
}

// Handle is the agent's transport handler.
func (a *Agent) Handle(env *wire.Envelope) (*wire.Envelope, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	switch env.Type {
	case wire.TypeAction:
		if nack, stale := a.guardEpoch(env); stale {
			return wire.AcquireAckEnvelope(a.host, env.From, nack), nil
		}
		ack := a.apply(*env.Action)
		return wire.AcquireAckEnvelope(a.host, env.From, ack), nil
	case wire.TypeProbe:
		// Answering at all is the proof of life.
		return wire.AcquireProbeAckEnvelope(a.host, env.From,
			wire.Probe{Host: a.host, Minute: env.Probe.Minute}), nil
	case wire.TypeLease:
		return wire.AcquireLeaseAckEnvelope(a.host, env.From, a.observeLease(*env.Lease)), nil
	default:
		return nil, fmt.Errorf("agent: %s cannot handle %q messages", a.host, env.Type)
	}
}

// guardEpoch enforces the coordinator lease: an action envelope
// carrying a lower epoch than the highest the agent has seen is NACKed
// without touching the process table OR the idempotency cache — a
// straggler from a crashed incarnation, or a split-brain predecessor,
// cannot mutate the host and cannot poison the cache. Epoch zero
// (unjournaled coordinators) disables the guard. The NACK is
// deliberately uncached: epochs only move forward, so the same stale
// sender can never legitimately retry into an OK.
func (a *Agent) guardEpoch(env *wire.Envelope) (wire.ActionAck, bool) {
	if env.Epoch == 0 {
		return wire.ActionAck{}, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if env.Epoch < a.coordEpoch {
		a.staleNacks++
		if a.epochRejects != nil {
			a.epochRejects.Inc()
		}
		return wire.ActionAck{
			Key: env.Action.Key,
			OK:  false,
			Error: fmt.Sprintf("agent: %s: coordinator epoch %d superseded by %d",
				a.host, env.Epoch, a.coordEpoch),
		}, true
	}
	a.coordEpoch = env.Epoch
	return wire.ActionAck{}, false
}

// observeLease processes a leader's lease beacon. A beacon carrying an
// epoch at or above the highest the agent has seen is legitimate
// (epochs are unique per incarnation, so an equal epoch is the same
// leader renewing): the agent adopts the epoch and redirects its
// heartbeats to the announced leader — the next reporter Send drains
// any minutes buffered during the leaderless window to the new leader.
// A lower epoch is a deposed incarnation still beaconing; it is fenced
// exactly like a stale action (counted, state untouched) and the reply
// carries the higher epoch so the sender learns it was superseded and
// steps down.
func (a *Agent) observeLease(l wire.Lease) wire.Lease {
	a.mu.Lock()
	defer a.mu.Unlock()
	if l.Epoch < a.coordEpoch {
		a.staleNacks++
		if a.epochRejects != nil {
			a.epochRejects.Inc()
		}
		return wire.Lease{Leader: a.coordinator, Epoch: a.coordEpoch, Minute: l.Minute}
	}
	a.coordEpoch = l.Epoch
	if l.Leader != "" {
		a.coordinator = l.Leader
	}
	return wire.Lease{Leader: a.coordinator, Epoch: a.coordEpoch, Minute: l.Minute}
}

// Coordinator returns the node the agent currently sends heartbeats to
// — updated by lease beacons after a failover.
func (a *Agent) Coordinator() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.coordinator
}

// apply executes one operation against the process table, answering
// duplicates from the idempotency cache without re-applying.
func (a *Agent) apply(req wire.ActionRequest) wire.ActionAck {
	a.mu.Lock()
	defer a.mu.Unlock()

	if cached, ok := a.acks[req.Key]; ok {
		cached.Duplicate = true
		return cached
	}
	ack := wire.ActionAck{Key: req.Key, OK: true}
	if req.DeadlineUnixMS > 0 && a.Now().UnixMilli() > req.DeadlineUnixMS {
		ack.OK = false
		ack.Error = fmt.Sprintf("agent: %s: deadline for %s %s expired", a.host, req.Op, req.InstanceID)
	} else if a.failNextOp == req.Op && a.failNextMsg != "" {
		a.failNextOp, a.failNextMsg, ack.OK, ack.Error = "", "", false, a.failNextMsg
	} else if err := a.applyOp(req); err != nil {
		ack.OK = false
		ack.Error = err.Error()
	}
	a.cacheAck(req.Key, ack)
	if ack.OK {
		a.appendLog(req.Op, req.InstanceID)
	}
	return ack
}

// cacheAck records a terminal answer in the idempotency cache, evicting
// the oldest entry once the cache is full. Steady state is one map
// delete plus one insert of equal size — allocation-free. Callers hold
// a.mu.
func (a *Agent) cacheAck(key string, ack wire.ActionAck) {
	if len(a.ackSeq) < ackCacheCap {
		a.ackSeq = append(a.ackSeq, key)
	} else {
		delete(a.acks, a.ackSeq[a.ackHead])
		a.ackSeq[a.ackHead] = key
		a.ackHead++
		if a.ackHead == len(a.ackSeq) {
			a.ackHead = 0
		}
	}
	a.acks[key] = ack
}

// appendLog records one applied operation in the audit ring. Callers
// hold a.mu.
func (a *Agent) appendLog(op wire.Op, id string) {
	if len(a.log) < agentLogCap {
		a.log = append(a.log, logEntry{op: op, id: id})
		return
	}
	a.log[a.logHead] = logEntry{op: op, id: id}
	a.logHead++
	if a.logHead == len(a.log) {
		a.logHead = 0
	}
}

// applyOp mutates the process table. Callers hold a.mu.
func (a *Agent) applyOp(req wire.ActionRequest) error {
	switch req.Op {
	case wire.OpStart, wire.OpBind:
		if _, dup := a.procs[req.InstanceID]; dup {
			return fmt.Errorf("agent: %s already runs instance %q", a.host, req.InstanceID)
		}
		a.procs[req.InstanceID] = proc{service: req.Service}
	case wire.OpStop, wire.OpUnbind:
		if _, ok := a.procs[req.InstanceID]; !ok {
			return fmt.Errorf("agent: %s does not run instance %q", a.host, req.InstanceID)
		}
		delete(a.procs, req.InstanceID)
	case wire.OpPriority:
		p, ok := a.procs[req.InstanceID]
		if !ok {
			return fmt.Errorf("agent: %s does not run instance %q", a.host, req.InstanceID)
		}
		p.priority += req.Delta
		a.procs[req.InstanceID] = p
	default:
		return fmt.Errorf("agent: unknown operation %q", req.Op)
	}
	return nil
}

// SendHello announces the agent to the coordinator — the join message
// of a freshly booted host daemon. The coordinator's OnHello hook
// decides what joining means (registering the host's route, pooling
// the blade); a rejected or unacknowledged hello is returned as an
// error so the daemon can retry before it starts heartbeating.
func (a *Agent) SendHello(ctx context.Context, h wire.Hello) error {
	if h.Host == "" {
		h.Host = a.host
	}
	coord := a.Coordinator()
	reply, err := a.tr.Call(ctx, coord, wire.HelloEnvelope(a.host, coord, h))
	if err != nil {
		return err
	}
	ok := reply != nil && reply.Type == wire.TypeAck && reply.Ack != nil && reply.Ack.OK
	wire.ReleaseEnvelope(reply)
	if !ok {
		return fmt.Errorf("agent: %s: hello not acknowledged by %s", a.host, coord)
	}
	return nil
}

// Reporter returns the agent's heartbeat reporter, creating it on
// first use. One reporter exists per agent; it is the batching fast
// path for the per-minute load report.
func (a *Agent) Reporter() *HeartbeatReporter {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.reporter == nil {
		r := &HeartbeatReporter{a: a}
		r.env.Version = wire.Version
		r.env.Type = wire.TypeHeartbeat
		r.env.From = a.host
		r.env.Heartbeat = &r.hb
		r.hb.Host = a.host
		a.reporter = r
	}
	return a.reporter
}

// reporterBufferCap bounds the ring of undelivered heartbeat minutes a
// reporter holds while its coordinator is unreachable (a leaderless
// failover window, a transient network fault). When the ring is full
// the oldest minute is dropped — the monitor would discard a report
// that stale anyway, and an unbounded buffer on a long-partitioned
// host would be a leak.
const reporterBufferCap = 16

// HeartbeatReporter coalesces one host's per-minute load report — the
// host-level CPU/memory numbers plus a sample per resident instance —
// into a single reusable envelope, so the steady-state heartbeat path
// allocates nothing: the envelope, the heartbeat payload and the
// instance-sample slice are reused minute after minute. A host daemon
// calls Begin once per minute, Sample per instance, then Send.
//
// A report Send cannot deliver is not lost: after the configured
// retries it is parked in a bounded ring and re-offered, oldest first,
// at the start of every later Send — so the minutes of a leaderless
// failover window drain to the new leader on the first successful
// heartbeat after the redirect, and the monitor's day profiles stay
// gap-free. The destination is re-read from the agent on every attempt,
// so a lease redirect takes effect mid-buffer.
//
// A steady report carries numbers, not names: once a coordinator's ack
// to a named heartbeat has issued the host's and every sample's session
// index, the open report is stamped with them (stamp) for as long as it
// goes to that node and lists the same instances. Anything else goes
// out named, whole, and the ack teaches the reporter again (learn).
//
// The reporter is NOT safe for concurrent use: it models the one
// monitoring loop a host daemon runs. Transports never retain the
// envelope past the call (the loopback deep-clones held messages), so
// reuse across minutes is safe.
type HeartbeatReporter struct {
	a   *Agent
	env wire.Envelope
	hb  wire.Heartbeat

	// The session, the node that issued it, the host's index, and per
	// sample position the names an index was issued for.
	session   uint64
	node      string
	hostIndex uint32
	issued    []wire.InstanceSample

	// buffered holds the undelivered minutes, oldest first, at most
	// reporterBufferCap entries. Each entry owns its Instances slice.
	buffered []wire.Heartbeat

	// retries and backoff bound the per-report delivery attempts: a Send
	// makes 1+retries attempts, sleeping backoff<<attempt between them.
	// The default (0 retries) preserves the fire-and-forget semantics a
	// missed-heartbeat liveness signal depends on.
	retries int
	backoff time.Duration
	sleep   func(time.Duration)
}

// SetRetry configures bounded in-call retry: up to n extra delivery
// attempts per report with exponential backoff starting at d. The
// sleeper is replaceable for tests; nil uses time.Sleep.
func (r *HeartbeatReporter) SetRetry(n int, d time.Duration, sleep func(time.Duration)) {
	if sleep == nil {
		sleep = time.Sleep
	}
	r.retries, r.backoff, r.sleep = n, d, sleep
}

// Buffered returns how many undelivered minutes the reporter holds.
func (r *HeartbeatReporter) Buffered() int { return len(r.buffered) }

// Begin starts a new report for the minute, resetting the sample batch.
func (r *HeartbeatReporter) Begin(minute int, cpu, mem float64) {
	r.hb.Minute = minute
	r.hb.CPU = cpu
	r.hb.Mem = mem
	r.hb.Instances = r.hb.Instances[:0]
}

// Sample appends one instance's load measurement to the open report.
func (r *HeartbeatReporter) Sample(id, service string, load float64) {
	r.hb.Instances = append(r.hb.Instances, wire.InstanceSample{
		ID: id, Service: service, Load: load})
}

// Send delivers the batched report: any buffered minutes first, oldest
// to newest, then the open one. The first failure stops the drain —
// everything undelivered (the open report included) stays buffered for
// the next Send — and is returned, so the caller still sees a missed
// heartbeat (the liveness detector's signal) even though the data will
// arrive late rather than never.
func (r *HeartbeatReporter) Send(ctx context.Context) error {
	for len(r.buffered) > 0 {
		if r.buffered[0].Minute >= r.hb.Minute {
			// The open report supersedes a buffered same-or-newer minute
			// (a re-report after a partial drain): latest wins.
			r.buffered = r.buffered[:copy(r.buffered, r.buffered[1:])]
			continue
		}
		env := wire.HeartbeatEnvelope(r.a.host, "", r.buffered[0])
		if err := r.sendOne(ctx, env); err != nil {
			r.park()
			return err
		}
		r.buffered = r.buffered[:copy(r.buffered, r.buffered[1:])]
	}
	if err := r.sendOne(ctx, &r.env); err != nil {
		r.park()
		return err
	}
	return nil
}

// park copies the open report into the buffer (deduplicating its
// minute), evicting the oldest entry if the ring is full. The open
// report's sample slice is reused next minute, so the copy is deep —
// and named: it takes neither Session nor HostIndex along.
func (r *HeartbeatReporter) park() {
	keep := wire.Heartbeat{
		Host: r.hb.Host, Minute: r.hb.Minute, CPU: r.hb.CPU, Mem: r.hb.Mem,
		Instances: append([]wire.InstanceSample(nil), r.hb.Instances...),
	}
	for i := range r.buffered {
		if r.buffered[i].Minute == keep.Minute {
			r.buffered[i] = keep
			return
		}
	}
	if len(r.buffered) >= reporterBufferCap {
		r.buffered = r.buffered[:copy(r.buffered, r.buffered[1:])]
	}
	r.buffered = append(r.buffered, keep)
}

// stamp writes the session's indices onto the open report if it may go
// out indexed to the node, and strips them if not: sample i must be the
// (ID, Service) index i was issued for (the strings come from the same
// service.Instance every minute, so the comparison ends at the pointers).
func (r *HeartbeatReporter) stamp(node string) bool {
	hb := &r.hb
	hb.Session, hb.HostIndex = 0, 0
	if r.session == 0 || node != r.node || len(hb.Instances) != len(r.issued) {
		return false
	}
	for i := range hb.Instances {
		s, was := &hb.Instances[i], &r.issued[i]
		if s.ID != was.ID || s.Service != was.Service {
			return false
		}
		s.Index = was.Index
	}
	hb.Session, hb.HostIndex = r.session, r.hostIndex
	return true
}

// learn keeps the indices a coordinator node issued in its ack to a
// named heartbeat. An ack without them — the bare answer to an indexed
// frame, or a full dictionary — teaches nothing.
func (r *HeartbeatReporter) learn(node string, hb *wire.Heartbeat, ack *wire.ActionAck) {
	if ack.Session == 0 || ack.HostIndex == 0 || len(ack.Indices) != len(hb.Instances) || slices.Contains(ack.Indices, 0) {
		return
	}
	r.session, r.node, r.hostIndex = ack.Session, node, ack.HostIndex
	r.issued = append(r.issued[:0], hb.Instances...)
	for i, idx := range ack.Indices {
		r.issued[i].Index = idx
	}
}

// sendOne delivers one heartbeat envelope with the configured bounded
// retry, re-reading the agent's current coordinator on every attempt —
// which is also where the open report is stamped or stripped, since a
// session belongs to one node. A resync (a restarted coordinator under
// the same name) drops the session and sends the same minute again,
// named, at once: not a delivery failure, so not counted against the
// retries, and honoured once, of a frame that was in fact indexed.
func (r *HeartbeatReporter) sendOne(ctx context.Context, env *wire.Envelope) error {
	a := r.a
	for attempt := 0; ; {
		a.mu.Lock()
		a.seq++
		env.Seq = a.seq
		env.To = a.coordinator
		a.mu.Unlock()
		indexed := env == &r.env && r.stamp(env.To)
		reply, err := a.tr.Call(ctx, env.To, env)
		if err == nil {
			acked := reply != nil && reply.Type == wire.TypeAck && reply.Ack != nil
			ok := acked && reply.Ack.OK
			resync := acked && reply.Ack.Resync && indexed
			if ok {
				r.learn(env.To, env.Heartbeat, reply.Ack)
			}
			wire.ReleaseEnvelope(reply)
			if ok {
				return nil
			}
			if resync {
				r.session = 0
				continue
			}
			err = fmt.Errorf("agent: %s: heartbeat not acknowledged", a.host)
		}
		if attempt >= r.retries {
			return err
		}
		if r.backoff > 0 {
			r.sleep(r.backoff << attempt)
		}
		attempt++
	}
}
