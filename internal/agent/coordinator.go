package agent

import (
	"cmp"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autoglobe/internal/archive"
	"autoglobe/internal/cluster"
	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/service"
	"autoglobe/internal/wire"
)

// Coordinator is the receiving half of the control plane: it listens on
// the transport as the coordinator node, ingests agent heartbeats into
// the load monitoring system (the advisors and watchTime state machines
// are untouched — a heartbeat is simply a load monitor's report arriving
// over the network), tracks host liveness with hysteresis in the host
// slots (see CheckLiveness), and queues the triggers the monitor
// confirms for the control loop to collect.
//
// A heartbeat is buffered in its host's slot under one ingest lock: a
// load monitor reports once a minute, so ingest is one short critical
// section per host per minute, and a second core has never been shown
// to buy anything here. The buffered beats are merged into the monitor
// pipeline at the minute boundary (ObserveServices) in a canonical
// order — cluster order first, then any remaining hosts by name — which
// reproduces the in-process observation loop exactly: the trigger
// stream is byte-identical to an in-process run, because the per-entity
// watch state machines are independent and the merge fixes the
// cross-entity order. Steady-state ingest performs zero heap
// allocations: pending beats and their sample slices are recycled, and
// a steady heartbeat addresses its slot and instance names by session
// index (see resolveLocked): no string is hashed or interned on the way.
//
// The coordinator's minute is the clock. It owns the minutes above its
// floor — the newest minute closed, or at construction and takeover the
// archive's high-water mark — and a close observes a beat at its own
// minute only inside that window; anything else is placed at the
// close's minute (see collectLocked). A heartbeat stamped at or below the
// floor is acked with the minute the coordinator is on, and the agent's
// reporter moves its clock up to it.
//
// Ingestion preserves the in-process observation semantics exactly:
// host entities register with their performance index, an idle trigger
// for an empty host is filtered (a pooled blade at rest is not an
// exceptional situation), per-instance samples land in the archive for
// the controller's instanceLoad variable, and service-level loads
// aggregate across the instance samples of all heartbeats of a minute.
type Coordinator struct {
	node string
	dep  *service.Deployment
	lms  *monitor.System
	tr   wire.Transport

	// OnHello, when set, is invoked for every hello message (an agent
	// joining the landscape); its error is returned to the agent.
	OnHello func(wire.Hello) error

	metrics atomic.Pointer[coordMetrics]

	// ingestMu guards the session dictionary and every piece of ingest
	// state: the host slots' pending and parked beats, stale-replay
	// watermarks, Follows records and failure-detector state, the
	// counters, the queued list and the freelist. It is taken after mu,
	// never before.
	ingestMu   sync.Mutex
	heartbeats int
	maxMinute  int // newest minute a beat was ingested for
	// deaths and recoveries count the failure detector's transitions;
	// nil until Liveness().Instrument.
	deaths, recoveries *obs.Counter
	// queued lists the slots that took a pending beat since the last
	// merge (one that Forget emptied stays listed, and may be listed
	// twice); free recycles merged beats.
	queued []*hostSlot
	free   []*hostBeat
	// floor is the newest minute the monitor pipeline has closed: the
	// archive's high-water mark at construction and takeover, then each
	// close's minute.
	floor int

	// The session dictionary: what this incarnation (session, a non-zero
	// nonce) lets a reporter say by number. hostTab and instTab are
	// append-only — index i is entry i-1, for good — up to dictCap; hosts
	// holds every name ever seen, and slots the same slots in creation
	// order, for the failure detector's walks.
	session uint64
	dictCap int
	hosts   map[string]*hostSlot
	slots   []*hostSlot
	hostTab []*hostSlot
	instTab []instName
	instIdx map[instName]uint32

	// mu guards the merge path (monitor pipeline, the merge half of the
	// host slots, the instance and service slots, canonical order), the
	// trigger queue and the rarely-touched fields below. The slots
	// resolve every host, instance and service once, on first sight, to
	// what never changes between minutes, so a minute close costs no
	// lookup per heartbeat or sample. They grow only with the names ever
	// seen, never evicted.
	mu       sync.Mutex
	insts    map[string]*instSlot
	svcs     []svcSlot // catalog order; the catalog is immutable
	svcIndex map[string]*svcSlot
	// Reusable merge buffers: the beats a close observes, those of hosts
	// outside the cluster, and one cell per cluster position (nil
	// between merges). place and every hostSlot.pos are recomputed when
	// orderStale says cluster membership changed.
	scratch, stragglers, place []*hostBeat
	orderStale                 atomic.Bool
	seen                       [3]int // hosts, instances, services observed this close
	// triggers is the queue of confirmed triggers the merge appends to
	// and takeTriggers hands out; recycleTriggers gives its backing
	// array back, so a steady minute allocates no queue. TakeTriggers'
	// pointer view: lent is the queue it pointed into, until
	// RecycleTriggers hands the view back, and ptrSpare the recycled
	// view.
	triggers  []monitor.Trigger
	lent      []monitor.Trigger
	ptrSpare  []*monitor.Trigger
	lastErr   error
	journal   *CoordinatorJournal
	leaseHook func(wire.Lease) wire.Lease
}

// hostBeat is one host's buffered load report, waiting for the
// minute-boundary merge. Beats and their sample slices are recycled: a
// landscape in steady state reuses the same storage minute after minute.
type hostBeat struct {
	slot     *hostSlot
	minute   int // the minute reported; from collection on, the minute observed at
	cpu, mem float64
	samples  []wire.InstanceSample
}

// fill overwrites the beat with a host's heartbeat, reusing its sample
// storage.
func (b *hostBeat) fill(hs *hostSlot, hb *wire.Heartbeat) *hostBeat {
	b.slot, b.minute, b.cpu, b.mem = hs, hb.Minute, hb.CPU, hb.Mem
	b.samples = append(b.samples[:0], hb.Instances...)
	return b
}

// watchReg is one monitor registration of this coordinator. Forget drops
// the cached handle; in an HA group a peer's Forget kills it too, and the
// entity is then re-resolved by name, as the string-keyed Observe would.
type watchReg struct {
	key   string        // archive entity key
	watch monitor.Watch // zero: this coordinator has not registered it
}

// maxSessionNames caps the session dictionary, hosts plus instances: the
// wire is unauthenticated, and a table minted from whatever names arrive
// must not grow without bound. Twice the 100,700-host round's ~265k.
const maxSessionNames = 1 << 19

// instName is one instance entry of the session dictionary.
type instName struct{ id, service string }

// hostSlot is everything the coordinator holds for one host name: the
// dictionary entry an indexed frame addresses, the ingest slot its beats
// wait in and its failure-detector state (guarded by
// Coordinator.ingestMu), and the merge's resolved state (guarded by
// Coordinator.mu).
type hostSlot struct {
	name  string
	index uint32 // session-dictionary number; 0: the dictionary was full

	pending   *hostBeat   // the newest buffered beat, nil between merges
	parked    []*hostBeat // older buffered minutes, ascending, at most reporterBufferCap
	lastMin   int         // newest minute observed at (stale-replay guard); math.MinInt: none
	beatMin   int         // newest minute a beat was ingested for (Follows); math.MinInt: none
	beatEpoch uint64      // the epoch that beat was stamped with
	liveState

	watchReg
	pos   int         // 1-based cluster position; 0: not in the cluster
	insts []*instSlot // slot of the i-th sample of the host's last beat
}

// instSlot is the resolved state of one instance ID under one service.
type instSlot struct {
	id, service string
	log         archive.Entity
	svc         *svcSlot // nil: the service is not in the catalog
}

// svcSlot is one catalog service and this minute's instance samples.
type svcSlot struct {
	watchReg
	name    string
	samples []wire.InstanceSample
}

func byMinute(a, b *hostBeat) int             { return cmp.Compare(a.minute, b.minute) }
func byHost(a, b *hostBeat) int               { return strings.Compare(a.slot.name, b.slot.name) }
func bySampleID(a, b wire.InstanceSample) int { return strings.Compare(a.ID, b.ID) }

// takeBeatLocked pops a recycled beat from the freelist or allocates
// one. Callers hold c.ingestMu.
func (c *Coordinator) takeBeatLocked() *hostBeat {
	if n := len(c.free); n > 0 {
		b := c.free[n-1]
		c.free = c.free[:n-1]
		return b
	}
	return &hostBeat{}
}

// NewCoordinator starts a coordinator over the deployment and load
// monitoring system, listening on the transport under node (empty:
// CoordinatorNode).
func NewCoordinator(node string, dep *service.Deployment, lms *monitor.System, tr wire.Transport) (*Coordinator, error) {
	if node == "" {
		node = CoordinatorNode
	}
	if dep == nil || lms == nil || tr == nil {
		return nil, fmt.Errorf("agent: coordinator needs deployment, monitor system and transport")
	}
	c := &Coordinator{
		node:     node,
		dep:      dep,
		lms:      lms,
		tr:       tr,
		dictCap:  maxSessionNames,
		hosts:    make(map[string]*hostSlot),
		instIdx:  make(map[instName]uint32),
		insts:    make(map[string]*instSlot),
		svcIndex: make(map[string]*svcSlot),
	}
	c.resetFloor() // over a restored archive, never observe below it
	for c.session == 0 {
		var nonce [8]byte
		if _, err := rand.Read(nonce[:]); err != nil {
			return nil, fmt.Errorf("agent: coordinator session: %w", err)
		}
		c.session = binary.LittleEndian.Uint64(nonce[:])
	}
	c.orderStale.Store(true)
	dep.Cluster().Watch(func(cluster.Host, bool) { c.orderStale.Store(true) })
	// Warm the archive and the slot tables: every current service, host
	// and instance gets its ring and day profile — one slab for all of
	// them — and its slot up front, so the first minute's ingest is as
	// allocation-free as the thousandth.
	names, hosts := dep.Catalog().Names(), dep.Cluster().Names()
	keys := make([]string, 0, len(names)+3*len(hosts))
	c.svcs = make([]svcSlot, len(names))
	for i, svc := range names {
		c.svcs[i] = svcSlot{watchReg: watchReg{key: archive.ServiceEntity(svc)}, name: svc}
		c.svcIndex[svc] = &c.svcs[i]
		keys = append(keys, c.svcs[i].key)
	}
	var insts []*service.Instance
	for _, h := range hosts {
		keys = append(keys, c.slotFor(h).key)
		for _, inst := range dep.InstancesOn(h) {
			keys = append(keys, archive.InstanceEntity(inst.ID))
			insts = append(insts, inst)
		}
	}
	lms.Archive().Preallocate(keys...)
	for _, inst := range insts {
		c.instSlotLocked(inst.ID, inst.Service)
	}
	if err := tr.Listen(node, c.Handle); err != nil {
		return nil, err
	}
	return c, nil
}

// Instrument attaches an obs registry: ingested heartbeats are counted
// with their staleness (minutes behind the newest observed minute), and
// minute closes timed. A nil registry leaves the coordinator uninstrumented.
func (c *Coordinator) Instrument(r *obs.Registry) {
	c.metrics.Store(newCoordMetrics(r, c.node))
}

// AttachJournal makes liveness transitions durable: every host death
// and recovery CheckLiveness confirms is journaled, so a restarted
// coordinator keeps demoted hosts demoted (see liveness.MarkDead). A
// nil journal detaches.
func (c *Coordinator) AttachJournal(cj *CoordinatorJournal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = cj
}

// resetFloor sets the floor to the archive's high-water mark — whoever
// closed those minutes — so a coordinator taking over the shared monitor
// pipeline cannot observe a minute its predecessor already observed.
func (c *Coordinator) resetFloor() {
	last, _ := c.lms.Archive().LastMinute()
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	c.floor = last
}

// SetLeaseHook routes incoming lease-renewal beacons (an elected
// leader announcing itself to its standbys) to the election member
// owning this coordinator. The hook returns the ack payload.
func (c *Coordinator) SetLeaseHook(hook func(wire.Lease) wire.Lease) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.leaseHook = hook
}

// Node returns the coordinator's transport node name.
func (c *Coordinator) Node() string { return c.node }

// Heartbeats returns how many heartbeats have been ingested.
func (c *Coordinator) Heartbeats() int {
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	return c.heartbeats
}

// Err returns the first ingestion error since the last call, if any.
// Transports swallow handler errors into timeouts on the agent side, so
// the control loop checks here once per minute.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.lastErr
	c.lastErr = nil
	return err
}

// Handle is the coordinator's transport handler.
func (c *Coordinator) Handle(env *wire.Envelope) (*wire.Envelope, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	switch env.Type {
	case wire.TypeHeartbeat:
		// Nobody reads a reply's From and To; without them an ack with
		// only OK to say is two bytes on the wire, and a steady indexed
		// beat's is the shared one. A named frame's ack appends its
		// indices to a pooled box's own array.
		hb, ack, reply := env.Heartbeat, &wire.ActionAck{OK: true}, (*wire.Envelope)(nil)
		if err := checkFinite(hb); err != nil {
			return wire.AcquireAckEnvelope("", "", wire.ActionAck{Error: err.Error()}), nil
		}
		if hb.HostIndex == 0 {
			reply = wire.AcquireAckEnvelope("", "", *ack)
			ack = reply.Ack
		}
		c.ingestMu.Lock()
		if hs := c.resolveLocked(hb, ack); hs != nil {
			c.ingestLocked(hs, hb, env.Epoch)
			if hb.Minute <= c.floor {
				ack.NextMinute = c.floor + 1 // the agent lags: give it the clock
			}
		}
		c.ingestMu.Unlock()
		switch {
		case reply != nil:
			return reply, nil
		case ack.Resync || ack.NextMinute != 0:
			return wire.AcquireAckEnvelope("", "", *ack), nil
		}
		return wire.AckOKEnvelope(), nil
	case wire.TypeHello:
		if c.OnHello != nil {
			if err := c.OnHello(*env.Hello); err != nil {
				return nil, err
			}
		}
		return wire.AckOKEnvelope(), nil
	case wire.TypeLease:
		c.mu.Lock()
		hook := c.leaseHook
		c.mu.Unlock()
		if hook == nil {
			// A coordinator outside an election group just echoes the
			// lease: it neither tracks nor contests leadership.
			return wire.AcquireLeaseAckEnvelope(c.node, env.From, *env.Lease), nil
		}
		return wire.AcquireLeaseAckEnvelope(c.node, env.From, hook(*env.Lease)), nil
	default:
		return nil, fmt.Errorf("agent: coordinator cannot handle %q messages", env.Type)
	}
}

// slotFor returns the slot of a host name, creating it on first sight.
func (c *Coordinator) slotFor(host string) *hostSlot {
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	return c.slotLocked(host)
}

// slotLocked is slotFor for callers holding c.ingestMu: a new slot takes
// the next dictionary index while there is room.
func (c *Coordinator) slotLocked(host string) *hostSlot {
	hs := c.hosts[host]
	if hs == nil {
		hs = &hostSlot{name: host, lastMin: math.MinInt,
			beatMin: math.MinInt, watchReg: watchReg{key: archive.HostEntity(host)}}
		if len(c.hostTab)+len(c.instTab) < c.dictCap {
			c.hostTab = append(c.hostTab, hs)
			hs.index = uint32(len(c.hostTab))
		}
		c.hosts[host] = hs
		c.slots = append(c.slots, hs)
	}
	return hs
}

// resolveLocked finds the slot a heartbeat frame is for and prepares its
// ack. Callers hold c.ingestMu.
//
// An indexed frame is resolved under the session that issued its numbers
// or not at all: table[index-1] for the host, each sample's names
// restored from the instance table (two string headers, nothing hashed),
// so everything downstream sees what a named frame would have decoded
// to. If the session or an index is not this coordinator's, the frame is
// refused whole — nil, a resync ack, nothing ingested or counted: a held
// or duplicated frame landing on a later incarnation is never attributed
// to another host.
//
// A named frame costs one lookup per name and is acked with the numbers
// to use from the next minute on — bare once the dictionary is full.
func (c *Coordinator) resolveLocked(hb *wire.Heartbeat, ack *wire.ActionAck) *hostSlot {
	if hb.HostIndex != 0 {
		ok := hb.Session == c.session && int(hb.HostIndex) <= len(c.hostTab)
		for i := 0; ok && i < len(hb.Instances); i++ {
			ok = hb.Instances[i].Index != 0 && int(hb.Instances[i].Index) <= len(c.instTab)
		}
		if !ok {
			ack.OK, ack.Resync = false, true
			c.metrics.Load().resync()
			return nil
		}
		hs := c.hostTab[hb.HostIndex-1]
		hb.Host = hs.name
		for i := range hb.Instances {
			s, name := &hb.Instances[i], &c.instTab[hb.Instances[i].Index-1]
			s.ID, s.Service = name.id, name.service
		}
		return hs
	}
	c.metrics.Load().namedFrame()
	hs := c.slotLocked(hb.Host)
	for i := range hb.Instances {
		name := instName{hb.Instances[i].ID, hb.Instances[i].Service}
		idx := c.instIdx[name]
		if idx == 0 && len(c.hostTab)+len(c.instTab) < c.dictCap {
			c.instTab = append(c.instTab, name)
			idx = uint32(len(c.instTab))
			c.instIdx[name] = idx
		}
		ack.Indices = append(ack.Indices, idx)
	}
	if hs.index == 0 || slices.Contains(ack.Indices, 0) {
		ack.Indices = ack.Indices[:0]
	} else {
		ack.Session, ack.HostIndex = c.session, hs.index
	}
	return hs
}

// Ingest buffers one unstamped (epoch 0) heartbeat in its host's slot,
// found by name. A non-finite load is refused, as Handle refuses it.
func (c *Coordinator) Ingest(hb wire.Heartbeat) error {
	if err := checkFinite(&hb); err != nil {
		return err
	}
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	c.ingestLocked(c.slotLocked(hb.Host), &hb, 0)
	return nil
}

// Follows reports whether host's newest ingested beat is for minute
// since or later and was stamped with epoch: proof that the host's agent
// reports to this coordinator under that epoch. An unknown host does not.
func (c *Coordinator) Follows(host string, since int, epoch uint64) bool {
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	hs := c.hosts[host]
	return hs != nil && hs.beatMin >= since && hs.beatEpoch == epoch
}

// checkFinite refuses a heartbeat whose CPU, memory or instance load is
// NaN or ±Inf before anything is resolved, minted, counted or marked
// alive: a NaN compares false against every watch threshold, so it
// would never trigger, yet sit in the archive and poison service means.
func checkFinite(hb *wire.Heartbeat) error {
	ok := finite(hb.CPU) && finite(hb.Mem)
	for i := 0; ok && i < len(hb.Instances); i++ {
		ok = finite(hb.Instances[i].Load)
	}
	if !ok {
		return fmt.Errorf("agent: heartbeat %q minute %d: non-finite load refused", hb.Host, hb.Minute)
	}
	return nil
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return math.Abs(x) <= math.MaxFloat64 }

// ingestLocked buffers one heartbeat in its host's slot. Callers hold
// c.ingestMu. The monitor pipeline is NOT touched here — beats are
// merged deterministically at the minute boundary by ObserveServices —
// and the hot path allocates nothing in steady state (the pending beat
// and its sample slice are recycled).
//
// A stale replay — a beat older than the minute the host was last
// observed at — is dropped: it can only be re-delivered traffic (the
// loopback's held/duplicated messages, a retried HTTP POST) or an agent
// behind the coordinator's clock, which the ack corrects. The newest
// beat is pending; an older minute — a drained backlog, or a report
// that arrived out of order — is parked beside it (parkLocked), and the
// same minute again overwrites (latest report wins). Only a beat at
// least as new as the slot's record replaces it (Follows).
func (c *Coordinator) ingestLocked(hs *hostSlot, hb *wire.Heartbeat, epoch uint64) {
	c.heartbeats++
	c.maxMinute = max(c.maxMinute, hb.Minute)
	c.metrics.Load().ingest(c.maxMinute - hb.Minute)
	// Liveness is eager — a beat is proof of life the moment it
	// arrives, independent of the minute-boundary merge. Everything
	// monitor-facing waits for the merge.
	c.beatLocked(hs, hb.Minute)

	if hb.Minute >= hs.beatMin {
		hs.beatMin, hs.beatEpoch = hb.Minute, epoch
	}
	if hb.Minute < hs.lastMin {
		return
	}
	b := hs.pending
	switch {
	case b == nil:
		b = c.takeBeatLocked()
		hs.pending = b
		c.queued = append(c.queued, hs)
	case hb.Minute > b.minute:
		c.parkLocked(hs, b)
		b = c.takeBeatLocked()
		hs.pending = b
	case hb.Minute < b.minute:
		c.parkLocked(hs, c.takeBeatLocked().fill(hs, hb))
		return
	}
	b.fill(hs, hb)
}

// parkLocked keeps a beat older than its host's pending one for the
// close, in minute order: a minute already parked is overwritten, and
// past reporterBufferCap minutes — all a reporter ever holds — the
// oldest goes. Callers hold c.ingestMu.
func (c *Coordinator) parkLocked(hs *hostSlot, b *hostBeat) {
	i, found := slices.BinarySearchFunc(hs.parked, b, byMinute)
	if found {
		c.free = append(c.free, hs.parked[i])
		hs.parked[i] = b
		return
	}
	hs.parked = slices.Insert(hs.parked, i, b)
	if len(hs.parked) > reporterBufferCap {
		c.free = append(c.free, hs.parked[0])
		hs.parked = slices.Delete(hs.parked, 0, 1)
	}
}

// instSlotLocked resolves an instance ID reported under a service; an
// ID seen under another service re-resolves. Callers hold c.mu.
func (c *Coordinator) instSlotLocked(id, service string) *instSlot {
	is := c.insts[id]
	if is == nil || is.service != service {
		is = &instSlot{id: id, service: service, svc: c.svcIndex[service],
			log: c.lms.Archive().Resolve(archive.InstanceEntity(id))}
		c.insts[id] = is
	}
	return is
}

// watchLocked returns a registration's live watch handle, registering
// the entity when this coordinator first observes it (again after
// Forget) with the host's performance index — 1 for a service or an
// unknown host. Callers hold c.mu.
func (c *Coordinator) watchLocked(r *watchReg, class monitor.Class, host string) monitor.Watch {
	switch {
	case r.watch == monitor.Watch{}:
		perf := 1.0
		if h, ok := c.dep.Cluster().Host(host); ok {
			perf = h.PerformanceIndex
		}
		r.watch = c.lms.Register(r.key, class, perf)
	case !r.watch.Live():
		r.watch = c.lms.Watch(r.key)
	}
	return r.watch
}

// canonicalLocked reorders the beats of one minute (slots resolved, one
// per host), in place, into the canonical order: hosts currently in the
// cluster first, in cluster order — the order the in-process observation
// loop iterates — then any remaining hosts sorted by name. The order is
// a pure function of the landscape, never of arrival interleaving, which
// makes the distributed plane byte-identical to the in-process run.
// Clustered hosts have a dense position, so they are placed, not sorted;
// positions are recomputed only after a membership change. Callers hold
// c.mu.
func (c *Coordinator) canonicalLocked(beats []*hostBeat) []*hostBeat {
	if c.orderStale.Swap(false) {
		names := c.dep.Cluster().Names()
		c.ingestMu.Lock()
		for _, hs := range c.hosts {
			hs.pos = 0
		}
		for i, name := range names {
			c.slotLocked(name).pos = i + 1
		}
		c.ingestMu.Unlock()
		c.place = make([]*hostBeat, len(names))
	}
	stragglers := c.stragglers[:0]
	for _, b := range beats {
		if pos := b.slot.pos; pos == 0 {
			stragglers = append(stragglers, b)
		} else {
			c.place[pos-1] = b
		}
	}
	out := beats[:0]
	for i, b := range c.place {
		if b != nil {
			out = append(out, b)
			c.place[i] = nil
		}
	}
	slices.SortFunc(stragglers, byHost)
	c.stragglers = stragglers[:0]
	return append(out, stragglers...)
}

// collectLocked steals the buffered beats and places each by the window
// the close owns, floor < minute <= the close's minute. A host's newest
// beat keeps its minute inside the window and takes the close's outside
// it — a late report degraded, never silently discarded, and one from
// the future clamped; a parked beat is kept only inside the window and
// below the newest. Callers hold c.mu.
func (c *Coordinator) collectLocked(minute int) []*hostBeat {
	beats := c.scratch[:0]
	c.ingestMu.Lock()
	for _, hs := range c.queued {
		b := hs.pending
		if b == nil {
			continue // emptied by Forget, or listed twice
		}
		hs.pending = nil
		if b.minute <= c.floor || b.minute > minute {
			b.minute = minute
		}
		for _, p := range hs.parked {
			if c.floor < p.minute && p.minute < b.minute {
				beats = append(beats, p)
			} else {
				c.free = append(c.free, p)
			}
		}
		hs.parked = hs.parked[:0]
		beats = append(beats, b)
	}
	c.queued = c.queued[:0]
	c.ingestMu.Unlock()
	c.scratch = beats[:0] // keep the (possibly grown) buffer
	return beats
}

// observeBeatLocked feeds one collected beat into the monitor pipeline
// at the minute the close placed it — the exact sequence the old
// per-heartbeat ingest performed, now at the minute boundary. Callers
// hold c.mu.
func (c *Coordinator) observeBeatLocked(b *hostBeat) error {
	hs, minute := b.slot, b.minute
	n := len(c.triggers)
	trs, err := c.lms.ObserveWatch(c.triggers, c.watchLocked(&hs.watchReg, monitor.Server, hs.name), minute, b.cpu, b.mem)
	if err != nil {
		return err
	}
	c.triggers = trs
	c.seen[0]++
	c.seen[1] += len(b.samples)
	if len(trs) > n {
		// An idle host with nothing running on it is the normal resting
		// state of a pooled blade, not an exceptional situation.
		if trs[n].Kind == monitor.ServerIdle && len(b.samples) == 0 {
			c.triggers = trs[:n]
		} else {
			trs[n].Entity = hs.name
		}
	}
	for i := range b.samples {
		s := &b.samples[i]
		// No lookup when the host's last beat had this instance here.
		if i == len(hs.insts) {
			hs.insts = append(hs.insts, c.instSlotLocked(s.ID, s.Service))
		} else if is := hs.insts[i]; is.id != s.ID || is.service != s.Service {
			hs.insts[i] = c.instSlotLocked(s.ID, s.Service)
		}
		is := hs.insts[i]
		if err := is.log.Record(archive.Sample{Minute: minute, CPU: s.Load}); err != nil {
			return err
		}
		if is.svc != nil {
			is.svc.samples = append(is.svc.samples, *s)
		}
	}
	return nil
}

// ObserveServices closes the minute. The collected beats (see
// collectLocked) are replayed as ascending per-minute groups — hosts in
// canonical order (see canonicalLocked), then the per-service loads
// accumulated from their samples, in catalog order exactly like the
// in-process service loop — each at the group's own minute, and any
// confirmed triggers are appended to the queue. In step there is one
// group, at the close's minute; a drained failover backlog lands as the
// fault-free run would have observed it — same minutes, same order,
// same archive slots — so day profiles stay gap-free. The service
// accumulators reset, keeping their capacity, on every exit path: a
// failed close must not leak its samples into the next minute's
// average. Samples are summed in
// instance-ID order — the order the in-process loop iterates instances
// in — so the floating-point sum is bit-identical regardless of which
// host's heartbeat arrived first. Error or not, every beat is recycled,
// its host's stale-replay watermark lifted to the minute it was observed
// at, and the floor moves up to the close's minute.
func (c *Coordinator) ObserveServices(minute int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	beats := c.collectLocked(minute)
	if !slices.IsSortedFunc(beats, byMinute) {
		slices.SortStableFunc(beats, byMinute)
	}
	var err error
	for lo, hi := 0, 0; lo < len(beats) && err == nil; lo = hi {
		group := beats[lo].minute
		for hi < len(beats) && beats[hi].minute == group {
			hi++
		}
		for _, b := range c.canonicalLocked(beats[lo:hi]) {
			if err = c.observeBeatLocked(b); err != nil {
				break
			}
		}
		if err == nil {
			err = c.closeServicesLocked(group)
		}
	}
	if err != nil {
		for i := range c.svcs {
			c.svcs[i].samples = c.svcs[i].samples[:0]
		}
	}
	c.ingestMu.Lock()
	for _, b := range beats {
		b.slot.lastMin = max(b.slot.lastMin, b.minute)
		c.free = append(c.free, b)
	}
	c.floor = max(c.floor, minute)
	names := len(c.hostTab) + len(c.instTab)
	c.ingestMu.Unlock()
	c.metrics.Load().merged(start, c.seen, names)
	c.seen = [3]int{}
	return err
}

// closeServicesLocked observes the per-service loads accumulated from
// one minute's heartbeats, in catalog order, resetting each accumulator
// as it goes. Samples arrive in canonical host order; only a service for
// which that is not instance-ID order is sorted. Callers hold c.mu.
func (c *Coordinator) closeServicesLocked(minute int) error {
	for i := range c.svcs {
		sv := &c.svcs[i]
		n := len(sv.samples)
		if n == 0 {
			continue
		}
		if !slices.IsSortedFunc(sv.samples, bySampleID) {
			slices.SortFunc(sv.samples, bySampleID)
		}
		var sum float64
		for _, s := range sv.samples {
			sum += s.Load
		}
		sv.samples = sv.samples[:0]
		q := len(c.triggers)
		trs, err := c.lms.ObserveWatch(c.triggers, c.watchLocked(&sv.watchReg, monitor.Service, ""), minute, sum/float64(n), 0)
		if err != nil {
			return err
		}
		c.triggers = trs
		c.seen[2]++
		if len(trs) > q {
			trs[q].Entity = sv.name
		}
	}
	return nil
}

// takeTriggers drains the queued confirmed triggers in merge order.
// A caller done with the returned slice hands it back through
// recycleTriggers, and the next minute's triggers go into the same
// backing array: a minute that confirms triggers allocates nothing for
// them. Callers take and recycle after ObserveServices, on the
// goroutine that runs the close.
func (c *Coordinator) takeTriggers() []monitor.Trigger {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.triggers
	c.triggers = nil
	return out
}

// recycleTriggers returns a slice obtained from takeTriggers as the
// queue's backing array, unless a close has started a new one since.
// The elements are cleared (the coordinator must not pin processed
// triggers live) and the capacity kept. The caller must not touch the
// slice afterwards.
func (c *Coordinator) recycleTriggers(trs []monitor.Trigger) {
	clear(trs)
	c.mu.Lock()
	c.recycleLocked(trs)
	c.mu.Unlock()
}

// recycleLocked is recycleTriggers' hand-back. Callers hold c.mu.
func (c *Coordinator) recycleLocked(trs []monitor.Trigger) {
	if cap(c.triggers) == 0 {
		c.triggers = trs[:0]
	}
}

// TakeTriggers is takeTriggers for callers outside the package: the
// drained triggers as pointers into the queue's backing array, which
// stay valid until the slice goes back through RecycleTriggers. Neither
// the view nor the queue is reallocated in the steady state.
func (c *Coordinator) TakeTriggers() []*monitor.Trigger {
	c.mu.Lock()
	defer c.mu.Unlock()
	ptrs := c.ptrSpare[:0]
	c.ptrSpare = nil
	if len(c.triggers) == 0 {
		return ptrs // nothing to point into: the queue stays
	}
	trs := c.triggers
	c.lent, c.triggers = trs, nil
	for i := range trs {
		ptrs = append(ptrs, &trs[i])
	}
	return ptrs
}

// RecycleTriggers returns a slice obtained from TakeTriggers, and the
// queue its pointers point into, to the coordinator. The caller must
// not touch the slice or the triggers afterwards. Only the queue lent
// last is reused: a view returned after a later TakeTriggers leaves its
// queue to the collector.
func (c *Coordinator) RecycleTriggers(ptrs []*monitor.Trigger) {
	if cap(ptrs) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(ptrs) > 0 && len(c.lent) > 0 && ptrs[0] == &c.lent[0] {
		clear(c.lent)
		c.recycleLocked(c.lent)
		c.lent = nil
	}
	clear(ptrs)
	if c.ptrSpare == nil {
		c.ptrSpare = ptrs[:0]
	}
}

// noteErr records the first ingestion-path error for Err and reports
// whether an error was present.
func (c *Coordinator) noteErr(err error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lastErr == nil {
		c.lastErr = err
	}
	return err != nil
}

// Forget clears a demoted host's monitor registration — dropping the
// slot's cached watch handle with it — and discards every beat still
// buffered for it, parked minutes included (the host is dead; its last
// report must not resurface at the next merge). The failure detector
// keeps tracking it: a healed partition is then reported by
// CheckLiveness after the hysteresis streak, and the host's heartbeats
// re-register it. Its record of the last beat is dropped too: it must
// earn Follows again.
func (c *Coordinator) Forget(host string) {
	c.ingestMu.Lock()
	hs := c.slotLocked(host)
	hs.beatMin = math.MinInt
	if b := hs.pending; b != nil {
		hs.pending = nil
		c.free = append(c.free, b)
	}
	c.free = append(c.free, hs.parked...)
	hs.parked = hs.parked[:0]
	c.ingestMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lms.Deregister(hs.key)
	hs.watch = monitor.Watch{}
}

// Release fully removes a host (orderly pool removal): monitor
// registration, buffered beats, the stale-replay watermark and
// liveness tracking all end, so the host is neither probed nor
// reported dead or recovered until a beat starts tracking it afresh.
func (c *Coordinator) Release(host string) {
	c.Forget(host)
	c.ingestMu.Lock()
	hs := c.slotLocked(host)
	hs.lastMin, hs.liveState = math.MinInt, liveState{}
	c.ingestMu.Unlock()
}
