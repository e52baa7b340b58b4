package agent

import (
	"cmp"
	"context"
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
	"autoglobe/internal/rules"
	"autoglobe/internal/service"
	"autoglobe/internal/wire"
)

// DefaultIngestShards is the shard count of the coordinator's heartbeat
// ingest plane when none is configured. Eight shards keep a 1,000-host
// landscape's beats off a single mutex without measurable overhead on
// a 19-blade one.
const DefaultIngestShards = 8

// Coordinator is the receiving half of the control plane: it listens on
// the transport as the coordinator node, ingests agent heartbeats into
// the load monitoring system (the advisors and watchTime state machines
// are untouched — a heartbeat is simply a load monitor's report arriving
// over the network), tracks host liveness with hysteresis, and queues
// the triggers the monitor confirms for the control loop to collect.
//
// Ingest is sharded: a heartbeat is buffered in its host's slot, under
// the mutex of the one of N shards the host name hashes to, so
// concurrent agents never serialise on a global lock. The buffered
// beats are merged into the monitor pipeline at the minute boundary
// (ObserveServices) in a canonical order — cluster order first, then
// any remaining hosts by name — which reproduces the in-process
// observation loop exactly: the trigger stream is byte-identical to an
// unsharded or in-process run for any shard count, because the
// per-entity watch state machines are independent and the merge fixes
// the cross-entity order. Steady-state ingest performs zero heap
// allocations: pending beats and their sample slices are pooled per
// shard, and a steady heartbeat addresses its slot and instance names by
// session index (see resolve): no string is hashed or interned on the way.
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
	live *monitor.Liveness

	// ProbeTimeout bounds one liveness probe (default 1s).
	ProbeTimeout time.Duration
	// OnHello, when set, is invoked for every hello message (an agent
	// joining the landscape); its error is returned to the agent.
	OnHello func(wire.Hello) error

	// ha flips the coordinator into high-availability ingest mode: a
	// host may deliver several distinct minutes inside one merge window
	// (a reporter draining the backlog it buffered during a leaderless
	// failover), and the minute close replays them as ascending
	// per-minute groups instead of keeping only the latest. Off by
	// default — the plain path stays byte-for-byte the original.
	ha atomic.Bool

	// Lock-free ingest counters: Ingest runs concurrently across
	// shards and must not serialise on c.mu.
	heartbeats atomic.Int64
	maxMinute  atomic.Int64
	metrics    atomic.Pointer[coordMetrics]

	// shards carries the ingest shard set; swapped atomically by
	// Reshard so Ingest reads it without a lock.
	shards atomic.Pointer[[]*ingestShard]

	// trigMu guards the confirmed-trigger queue on its own lock, so
	// collecting triggers swaps the slice without holding (or waiting
	// on) the merge lock.
	trigMu   sync.Mutex
	triggers []*monitor.Trigger
	// trigSpare is the recycled backing array for the trigger queue:
	// TakeTriggers hands the filled slice out and arms the spare, and
	// RecycleTriggers returns a drained slice here, so the steady-state
	// minute loop stops allocating a fresh queue per minute.
	trigSpare []*monitor.Trigger

	// The session dictionary: what this incarnation (session, a non-zero
	// nonce) lets a reporter say by number. hostTab and instTab are
	// append-only — index i is entry i-1, for good — up to dictCap; hosts
	// holds every name ever seen. dictMu orders before a shard mutex.
	session uint64
	dictCap int
	dictMu  sync.RWMutex
	hosts   map[string]*hostSlot
	hostTab []*hostSlot
	instTab []instName
	instIdx map[instName]uint32

	// mu guards the merge path (monitor pipeline, the merge half of the
	// host slots, the instance and service slots, canonical order) and
	// the rarely-touched fields below. The slots resolve every host,
	// instance and service once, on first sight, to what never changes
	// between minutes, so a minute close costs no lookup per heartbeat
	// or sample. They grow only with the names ever seen, never evicted.
	mu       sync.Mutex
	insts    map[string]*instSlot
	svcs     []svcSlot // catalog order; the catalog is immutable
	svcIndex map[string]*svcSlot
	// Reusable merge buffers: all beats, the HA path's survivors, the
	// beats of hosts outside the cluster, and one cell per cluster
	// position (nil between merges). place and every hostSlot.pos are
	// recomputed when orderStale says cluster membership changed.
	scratch, kept, stragglers, place []*hostBeat
	orderStale                       atomic.Bool
	seen                             [3]int // hosts, instances, services observed this close
	lastErr                          error
	journal                          *CoordinatorJournal
	rulesReg                         *rules.Registry
	ruleSwap                         RuleActivator
	leaseHook                        func(wire.Lease) wire.Lease
	// mergeFloor (HA mode) is the newest minute the shared monitor
	// pipeline has already observed: a takeover sets it from the
	// previous leadership so a drained backlog cannot double-observe a
	// minute the deposed leader already merged. lastMerged is the
	// newest minute this coordinator actually observed host beats at.
	mergeFloor int
	lastMerged int
}

// RuleActivator is the hook a validated-and-activated rule base is
// handed to — typically a closure over controller.SwapRuleBase, so an
// accepted push hot-swaps the live controller. Its error vetoes the
// activation (the version stays archived but inactive).
type RuleActivator func(e *rules.Entry) error

// hostBeat is one host's buffered load report, waiting in a shard for
// the minute-boundary merge. Beats and their sample slices are pooled
// per shard: a landscape in steady state recycles the same storage
// minute after minute.
type hostBeat struct {
	slot     *hostSlot
	minute   int
	cpu, mem float64
	samples  []wire.InstanceSample
	late     bool // merge: came from backfill, older than the pending beat
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
// wait in (guarded by the mutex of the shard sh points at) and the
// merge's resolved state (guarded by Coordinator.mu).
type hostSlot struct {
	name  string
	index uint32 // session-dictionary number; 0: the dictionary was full

	sh      atomic.Pointer[ingestShard] // re-pointed by Reshard
	pending *hostBeat                   // the buffered beat, nil between merges
	lastMin int                         // newest merged minute (stale-replay guard); math.MinInt: none

	watchReg
	pos   int         // 1-based cluster position; 0: not in the cluster
	insts []*instSlot // slot of the i-th sample of the host's last beat
}

// lockShard locks and returns the slot's shard (no defer: a deferred
// unlock inside the retry loop costs the per-beat path an allocation).
func (hs *hostSlot) lockShard() *ingestShard {
	for {
		sh := hs.sh.Load()
		sh.mu.Lock()
		if hs.sh.Load() == sh {
			return sh
		}
		sh.mu.Unlock() // resharded between the load and the lock
	}
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

// ingestShard is one slice of the ingest plane: a mutex, the slots that
// took a pending beat since the last merge (one that Forget emptied
// stays listed, and may be listed twice), and a freelist of recycled
// beats. In HA mode a host's displaced older-minute beats wait in
// backfill instead of being overwritten, so a drained failover backlog
// survives until the minute-close merge.
type ingestShard struct {
	mu       sync.Mutex
	queued   []*hostSlot
	free     []*hostBeat
	backfill []*hostBeat
}

// take pops a recycled beat from the freelist or allocates one.
// Callers hold sh.mu.
func (sh *ingestShard) take() *hostBeat {
	if n := len(sh.free); n > 0 {
		b := sh.free[n-1]
		sh.free = sh.free[:n-1]
		return b
	}
	return &hostBeat{}
}

func newShards(n int) *[]*ingestShard {
	if n <= 0 {
		n = DefaultIngestShards
	}
	shards := make([]*ingestShard, n)
	for i := range shards {
		shards[i] = &ingestShard{}
	}
	return &shards
}

// fnv1a hashes a host name to its shard (FNV-1a): once, when its slot
// is created, and again on Reshard.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func shardOf(shards []*ingestShard, host string) *ingestShard {
	return shards[fnv1a(host)%uint32(len(shards))]
}

// NewCoordinator starts a coordinator over the deployment and load
// monitoring system, listening on the transport under node (empty:
// CoordinatorNode). The liveness detector may be shared with the
// caller; nil builds a hysteresis detector with the paper-scale
// defaults (timeout 2 minutes, dead after 2 missed probes, alive after
// 2 beats).
func NewCoordinator(node string, dep *service.Deployment, lms *monitor.System, tr wire.Transport, live *monitor.Liveness) (*Coordinator, error) {
	if node == "" {
		node = CoordinatorNode
	}
	if dep == nil || lms == nil || tr == nil {
		return nil, fmt.Errorf("agent: coordinator needs deployment, monitor system and transport")
	}
	if live == nil {
		live = monitor.NewLivenessHysteresis(2, 2, 2)
	}
	c := &Coordinator{
		node:         node,
		dep:          dep,
		lms:          lms,
		tr:           tr,
		live:         live,
		ProbeTimeout: time.Second,
		dictCap:      maxSessionNames,
		hosts:        make(map[string]*hostSlot),
		instIdx:      make(map[instName]uint32),
		insts:        make(map[string]*instSlot),
		svcIndex:     make(map[string]*svcSlot),
	}
	for c.session == 0 {
		var nonce [8]byte
		if _, err := rand.Read(nonce[:]); err != nil {
			return nil, fmt.Errorf("agent: coordinator session: %w", err)
		}
		c.session = binary.LittleEndian.Uint64(nonce[:])
	}
	c.shards.Store(newShards(DefaultIngestShards))
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

// Reshard rebuilds the ingest plane with n shards (minimum 1),
// re-pointing every host slot by rehash and migrating any buffered
// beats with it. Observation semantics are independent of the shard
// count — the minute-boundary merge fixes the order — so resharding is
// purely a concurrency/throughput knob.
func (c *Coordinator) Reshard(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := *c.shards.Load()
	next := newShards(max(n, 1))
	c.shards.Store(next) // before the walk: a slot created from here on is born re-pointed
	c.dictMu.RLock()
	defer c.dictMu.RUnlock()
	for _, hs := range c.hosts {
		src, dst := hs.sh.Load(), shardOf(*next, hs.name)
		if src == dst {
			continue
		}
		src.mu.Lock()
		dst.mu.Lock()
		hs.sh.Store(dst)
		if hs.pending != nil {
			dst.queued = append(dst.queued, hs)
		}
		dst.mu.Unlock()
		src.mu.Unlock()
	}
	for _, sh := range old {
		sh.mu.Lock()
		for _, b := range sh.backfill {
			dst := b.slot.sh.Load()
			dst.mu.Lock()
			dst.backfill = append(dst.backfill, b)
			dst.mu.Unlock()
		}
		sh.queued, sh.backfill = nil, nil
		sh.mu.Unlock()
	}
}

// Shards returns the current ingest shard count.
func (c *Coordinator) Shards() int { return len(*c.shards.Load()) }

// Instrument attaches an obs registry: ingested heartbeats are counted
// with their staleness (minutes behind the newest observed minute), and
// minute closes timed. A nil registry leaves the coordinator uninstrumented.
func (c *Coordinator) Instrument(r *obs.Registry) {
	c.metrics.Store(newCoordMetrics(r, c.node))
}

// AttachJournal makes liveness transitions durable: every host death
// and recovery CheckLiveness confirms is journaled, so a restarted
// coordinator keeps demoted hosts demoted (see Liveness.MarkDead). A
// nil journal detaches.
func (c *Coordinator) AttachJournal(cj *CoordinatorJournal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = cj
}

// AttachRules connects the coordinator's rule-base registry and the
// activation hook: rulePut/ruleGet/ruleList messages are then served,
// every push is validated (parse + vocabulary + compile) by the
// registry before a version exists, and an Activate push swaps the
// hook's target (normally the live controller) after journaling the
// version bump. A nil registry detaches.
func (c *Coordinator) AttachRules(reg *rules.Registry, activate RuleActivator) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rulesReg = reg
	c.ruleSwap = activate
}

// ruleState snapshots the rule-admin wiring under the merge lock.
func (c *Coordinator) ruleState() (*rules.Registry, RuleActivator, *CoordinatorJournal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rulesReg, c.ruleSwap, c.journal
}

// EnableHA switches the coordinator into high-availability ingest
// mode (see the ha field). It is enabled once, before traffic, on
// every member of an elected coordinator group.
func (c *Coordinator) EnableHA() { c.ha.Store(true) }

// SetMergeFloor (HA mode) records the newest minute the shared monitor
// pipeline has already observed. Beats at or below the floor are
// discarded by the grouped minute close — a new leader sets this at
// takeover so a drained agent backlog cannot double-observe minutes
// its predecessor already merged.
func (c *Coordinator) SetMergeFloor(minute int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mergeFloor = minute
}

// LastMerged returns the newest minute this coordinator observed host
// beats at — the value a plane carries across a takeover into the
// successor's merge floor.
func (c *Coordinator) LastMerged() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastMerged
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

// Liveness exposes the host liveness detector.
func (c *Coordinator) Liveness() *monitor.Liveness { return c.live }

// Heartbeats returns how many heartbeats have been ingested.
func (c *Coordinator) Heartbeats() int {
	return int(c.heartbeats.Load())
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
		// only OK to say is two bytes on the wire.
		reply := wire.AcquireAckEnvelope("", "", wire.ActionAck{OK: true})
		if hs := c.resolve(env.Heartbeat, reply.Ack); hs != nil {
			c.ingest(hs, env.Heartbeat)
		}
		return reply, nil
	case wire.TypeHello:
		if c.OnHello != nil {
			if err := c.OnHello(*env.Hello); err != nil {
				return nil, err
			}
		}
		return wire.AcquireAckEnvelope("", "", wire.ActionAck{OK: true}), nil
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
	case wire.TypeRulePut:
		return c.handleRulePut(env), nil
	case wire.TypeRuleGet:
		return c.handleRuleGet(env), nil
	case wire.TypeRuleList:
		return c.handleRuleList(env), nil
	default:
		return nil, fmt.Errorf("agent: coordinator cannot handle %q messages", env.Type)
	}
}

// handleRulePut validates and archives a pushed rule base, optionally
// activating it. Rejections travel as an Error reply, not a transport
// error — the admin client needs the reason, and a bad rule file is a
// protocol-level outcome, not a broken connection.
func (c *Coordinator) handleRulePut(env *wire.Envelope) *wire.Envelope {
	reg, swap, cj := c.ruleState()
	p := env.RulePut
	fail := func(err error) *wire.Envelope {
		return wire.RulePutEnvelope(c.node, env.From, wire.RulePut{Name: p.Name, Error: err.Error()})
	}
	if reg == nil {
		return fail(fmt.Errorf("agent: coordinator has no rule registry attached"))
	}
	if p.Source == "" {
		return fail(fmt.Errorf("agent: rule push without source"))
	}
	if p.Hash != "" && p.Hash != rules.Hash(p.Source) {
		return fail(fmt.Errorf("agent: rule push hash mismatch (corrupted in transit?)"))
	}
	// Validation before any version exists: the registry builds
	// (parse, vocabulary check, compile) before storing.
	var e *rules.Entry
	var err error
	if p.Version > 0 {
		e, err = reg.PutVersion(p.Name, p.Version, p.Source)
	} else {
		e, err = reg.Put(p.Name, p.Source)
	}
	if err != nil {
		return fail(err)
	}
	if p.Activate {
		// Swap the live controller first; a routing failure (a name no
		// controller slot answers to) leaves the version archived but
		// inactive. The journal record follows the successful swap, so a
		// recovered coordinator only ever re-activates rule sets that
		// were really live.
		if swap != nil {
			if err := swap(e); err != nil {
				return fail(err)
			}
		}
		if _, err := reg.Activate(e.Name, e.Version); err != nil {
			return fail(err)
		}
		if cj != nil {
			if err := cj.LogRule(RuleActivation{
				Name: e.Name, Version: e.Version, Hash: e.Hash, Source: e.Source,
			}); err != nil {
				c.noteErr(err)
				return fail(err)
			}
		}
	}
	return wire.RulePutEnvelope(c.node, env.From, wire.RulePut{
		Name: e.Name, Version: e.Version, Hash: e.Hash,
	})
}

// handleRuleGet answers a rule-base lookup with a rulePut reply
// carrying the archived source.
func (c *Coordinator) handleRuleGet(env *wire.Envelope) *wire.Envelope {
	reg, _, _ := c.ruleState()
	g := env.RuleGet
	if reg == nil {
		return wire.RulePutEnvelope(c.node, env.From, wire.RulePut{
			Name: g.Name, Error: "agent: coordinator has no rule registry attached"})
	}
	e, ok := reg.Get(g.Name, g.Version)
	if !ok {
		return wire.RulePutEnvelope(c.node, env.From, wire.RulePut{
			Name: g.Name, Error: fmt.Sprintf("agent: no rule base %q version %d", g.Name, g.Version)})
	}
	return wire.RulePutEnvelope(c.node, env.From, wire.RulePut{
		Name: e.Name, Version: e.Version, Hash: e.Hash, Source: e.Source,
	})
}

// handleRuleList answers the registry catalog.
func (c *Coordinator) handleRuleList(env *wire.Envelope) *wire.Envelope {
	reg, _, _ := c.ruleState()
	if reg == nil {
		return wire.RuleListEnvelope(c.node, env.From, wire.RuleList{
			Error: "agent: coordinator has no rule registry attached"})
	}
	refs := reg.List()
	l := wire.RuleList{Entries: make([]wire.RuleInfo, len(refs))}
	for i, r := range refs {
		l.Entries[i] = wire.RuleInfo{
			Name: r.Name, Version: r.Version, Hash: r.Hash, Active: r.Active, Rules: r.Rules,
		}
	}
	return wire.RuleListEnvelope(c.node, env.From, l)
}

// slotFor returns the slot of a host name, creating it — with the next
// dictionary index while there is room — on first sight.
func (c *Coordinator) slotFor(host string) *hostSlot {
	c.dictMu.Lock()
	defer c.dictMu.Unlock()
	hs := c.hosts[host]
	if hs == nil {
		hs = &hostSlot{name: host, lastMin: math.MinInt, watchReg: watchReg{key: archive.HostEntity(host)}}
		hs.sh.Store(shardOf(*c.shards.Load(), host))
		if len(c.hostTab)+len(c.instTab) < c.dictCap {
			c.hostTab = append(c.hostTab, hs)
			hs.index = uint32(len(c.hostTab))
		}
		c.hosts[host] = hs
	}
	return hs
}

// resolve finds the slot a heartbeat frame is for and prepares its ack.
//
// An indexed frame is resolved under the session that issued its numbers
// or not at all: table[index-1] for the host, each sample's names
// restored from the instance table (two string headers, nothing hashed),
// so everything downstream sees what a named frame would have decoded
// to. If the session or an index is not this coordinator's and the frame
// brings no names (JSON and the pointer-passing loopback carry both), it
// is refused whole — nil, a resync ack, nothing ingested or counted: a
// held or duplicated frame landing on a later incarnation is never
// attributed to another host.
//
// A named frame costs one lookup per name and is acked with the numbers
// to use from the next minute on — bare once the dictionary is full.
func (c *Coordinator) resolve(hb *wire.Heartbeat, ack *wire.ActionAck) *hostSlot {
	if hb.HostIndex != 0 {
		c.dictMu.RLock()
		ok := hb.Session == c.session && int(hb.HostIndex) <= len(c.hostTab)
		for i := 0; ok && i < len(hb.Instances); i++ {
			ok = hb.Instances[i].Index != 0 && int(hb.Instances[i].Index) <= len(c.instTab)
		}
		if ok {
			hs := c.hostTab[hb.HostIndex-1]
			hb.Host = hs.name
			for i := range hb.Instances {
				s, name := &hb.Instances[i], &c.instTab[hb.Instances[i].Index-1]
				s.ID, s.Service = name.id, name.service
			}
			c.dictMu.RUnlock()
			return hs
		}
		c.dictMu.RUnlock()
		if hb.Host == "" {
			ack.OK, ack.Resync = false, true
			c.metrics.Load().resync()
			return nil
		}
	}
	c.metrics.Load().namedFrame()
	hs := c.slotFor(hb.Host)
	c.dictMu.Lock()
	defer c.dictMu.Unlock()
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

// Ingest buffers one heartbeat in its host's slot, found by name.
func (c *Coordinator) Ingest(hb wire.Heartbeat) error {
	c.ingest(c.slotFor(hb.Host), &hb)
	return nil
}

// ingest buffers one heartbeat in its host's slot. The monitor
// pipeline is NOT touched here — beats are merged deterministically at
// the minute boundary by ObserveServices — so concurrent heartbeats
// from a 1,000-host landscape contend only per shard, and the hot path
// allocates nothing in steady state (the pending beat and its sample
// slice are recycled).
//
// A stale replay — a beat older than the host's last merged minute —
// is dropped: it can only be re-delivered traffic (the loopback's
// held/duplicated messages, a retried HTTP POST), and merging it would
// regress the host's archive series. Within the same merge window a
// newer beat overwrites an older one (latest report wins).
func (c *Coordinator) ingest(hs *hostSlot, hb *wire.Heartbeat) {
	c.heartbeats.Add(1)
	for {
		max := c.maxMinute.Load()
		if int64(hb.Minute) <= max {
			break
		}
		if c.maxMinute.CompareAndSwap(max, int64(hb.Minute)) {
			break
		}
	}
	c.metrics.Load().ingest(int(c.maxMinute.Load()) - hb.Minute)
	// Liveness is eager — a beat is proof of life the moment it
	// arrives, independent of the minute-boundary merge — and the
	// detector locks internally, so shards never serialise on it for
	// long. Everything monitor-facing waits for the merge.
	c.live.Beat(hs.name, hb.Minute)

	sh := hs.lockShard()
	if hb.Minute < hs.lastMin {
		sh.mu.Unlock()
		return
	}
	b := hs.pending
	if b == nil {
		b = sh.take()
		hs.pending = b
		sh.queued = append(sh.queued, hs)
	} else if hb.Minute > b.minute && c.ha.Load() {
		// HA: a newer minute arriving on top of an unmerged one is a
		// backlog drain, not a replacement — park the older beat for the
		// grouped minute close instead of losing its minute.
		sh.backfill = append(sh.backfill, b)
		b = sh.take()
		hs.pending = b
	} else if hb.Minute < b.minute {
		if c.ha.Load() {
			// HA: an out-of-order older minute still fills its slot in the
			// day profile; the grouped close replays it in minute order.
			sh.backfill = append(sh.backfill, sh.take().fill(hs, hb))
		}
		sh.mu.Unlock()
		return
	}
	b.fill(hs, hb)
	sh.mu.Unlock()
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

// canonicalLocked reorders the beats of one minute (slots resolved), in
// place, into the canonical order: hosts currently in the cluster first,
// in cluster order — the order the in-process observation loop iterates
// — then any remaining hosts sorted by name. The order is a pure
// function of the landscape, never of arrival interleaving or shard
// count, which makes the sharded plane byte-identical to the in-process
// run. Clustered hosts have a dense position, so they are placed, not
// sorted; positions are recomputed only after a membership change. A
// host's second beat (HA: a re-delivered backfill minute) is dropped.
// Callers hold c.mu.
func (c *Coordinator) canonicalLocked(beats []*hostBeat) []*hostBeat {
	if c.orderStale.Swap(false) {
		c.dictMu.RLock()
		for _, hs := range c.hosts {
			hs.pos = 0
		}
		c.dictMu.RUnlock()
		names := c.dep.Cluster().Names()
		for i, name := range names {
			c.slotFor(name).pos = i + 1
		}
		c.place = make([]*hostBeat, len(names))
	}
	stragglers := c.stragglers[:0]
	for _, b := range beats {
		switch pos := b.slot.pos; {
		case pos == 0:
			stragglers = append(stragglers, b)
		case c.place[pos-1] == nil:
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
	return append(out, slices.CompactFunc(stragglers, func(a, b *hostBeat) bool { return a.slot == b.slot })...)
}

// recycleLocked returns merged beats to their shards' freelists; the
// HA path also lifts the stale-replay watermarks to clamped minutes.
func (c *Coordinator) recycleLocked(beats []*hostBeat, watermark bool) {
	for _, b := range beats {
		sh := b.slot.lockShard()
		if watermark && b.minute > b.slot.lastMin {
			b.slot.lastMin = b.minute
		}
		sh.free = append(sh.free, b)
		sh.mu.Unlock()
	}
}

// collectLocked steals every shard's buffered beats — pending and, in HA
// mode, backfilled — advancing the stale-replay watermarks. Every beat
// already points at its host's slot. Callers hold c.mu.
func (c *Coordinator) collectLocked() []*hostBeat {
	beats := c.scratch[:0]
	for _, sh := range *c.shards.Load() {
		sh.mu.Lock()
		for _, hs := range sh.queued {
			b := hs.pending
			if b == nil {
				continue // emptied by Forget, or listed twice
			}
			hs.pending, hs.lastMin, b.late = nil, b.minute, false
			beats = append(beats, b)
		}
		sh.queued = sh.queued[:0]
		for _, b := range sh.backfill {
			b.late = true
			beats = append(beats, b)
		}
		sh.backfill = sh.backfill[:0]
		sh.mu.Unlock()
	}
	c.scratch = beats[:0] // keep the (possibly grown) buffer
	return beats
}

// mergeHostsLocked feeds the buffered beats into the monitor pipeline in
// canonical order (see canonicalLocked). Callers hold c.mu. The beats
// are observed at the coordinator's minute, not the agents'
// self-reported ones: the control-plane clock is authoritative (agents
// restart their local counters at 0; a coordinator resuming over a
// restored archive does not), and in the simulated planes the two clocks
// agree, so this changes nothing there.
func (c *Coordinator) mergeHostsLocked(minute int) error {
	beats := c.collectLocked()
	if len(beats) == 0 {
		return nil
	}
	var err error
	for _, b := range c.canonicalLocked(beats) {
		if err = c.observeBeatLocked(b, minute); err != nil {
			break
		}
	}
	if err == nil {
		c.lastMerged = max(c.lastMerged, minute)
	}
	c.recycleLocked(beats, false) // error or not
	return err
}

// mergeGroupedLocked is the HA-mode minute close: it takes the pending
// AND backfilled beats, drops anything at or below the merge floor
// (already observed under the previous leadership), and replays the
// rest as ascending per-minute groups — hosts in canonical order, then
// the service close — each at the group's own minute. A drained
// failover backlog therefore lands in the monitor pipeline exactly as
// the fault-free run would have observed it: same minutes, same order,
// same archive slots, so day profiles stay gap-free. A host whose only
// beats sit at or below the floor gets its newest one observed at the
// authoritative minute instead — the plain path's late-beat semantics —
// so a report that raced the previous minute close is degraded, never
// silently discarded. Callers hold c.mu.
func (c *Coordinator) mergeGroupedLocked(minute int) error {
	beats := c.collectLocked()
	kept := c.kept[:0]
	for _, b := range beats {
		if b.minute <= c.mergeFloor {
			if b.late {
				continue
			}
			b.minute = minute // clamp the host's newest stale report
		}
		kept = append(kept, b)
	}
	c.kept = kept[:0]
	if !slices.IsSortedFunc(kept, byMinute) {
		slices.SortStableFunc(kept, byMinute)
	}

	var err error
	for lo, hi := 0, 0; lo < len(kept) && err == nil; lo = hi {
		group := kept[lo].minute
		for hi < len(kept) && kept[hi].minute == group {
			hi++
		}
		for _, b := range c.canonicalLocked(kept[lo:hi]) {
			if err = c.observeBeatLocked(b, group); err != nil {
				break
			}
		}
		if err == nil {
			c.lastMerged = max(c.lastMerged, group)
			err = c.closeServicesLocked(group)
		}
	}
	c.recycleLocked(beats, true) // error or not
	c.mergeFloor = max(c.mergeFloor, minute)
	return err
}

// observeBeatLocked feeds one merged beat into the monitor pipeline —
// the exact sequence the old per-heartbeat ingest performed, now at
// the minute boundary — stamped with the coordinator's authoritative
// minute. Callers hold c.mu.
func (c *Coordinator) observeBeatLocked(b *hostBeat, minute int) error {
	hs := b.slot
	tr, err := c.lms.ObserveWatch(c.watchLocked(&hs.watchReg, monitor.Server, hs.name), minute, b.cpu, b.mem)
	if err != nil {
		return err
	}
	c.seen[0]++
	c.seen[1] += len(b.samples)
	// An idle host with nothing running on it is the normal resting
	// state of a pooled blade, not an exceptional situation.
	if tr != nil && !(tr.Kind == monitor.ServerIdle && len(b.samples) == 0) {
		c.queueTrigger(tr, hs.name)
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

// ObserveServices closes the minute: the buffered host beats are merged
// into the monitor pipeline in canonical order (see canonicalLocked),
// then the per-service loads accumulated from this minute's heartbeats
// are observed in catalog order, exactly like the in-process service
// loop, and any confirmed service triggers are queued. The accumulators
// reset — keeping their capacity — on every exit path: a failed close
// must not leak its samples into the next minute's average. Samples are
// summed in instance-ID order — the order the in-process loop iterates
// instances in — so the floating-point sum is bit-identical regardless
// of which host's heartbeat arrived first.
func (c *Coordinator) ObserveServices(minute int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	var err error
	if c.ha.Load() {
		err = c.mergeGroupedLocked(minute)
	} else if err = c.mergeHostsLocked(minute); err == nil {
		err = c.closeServicesLocked(minute)
	}
	if err != nil {
		for i := range c.svcs {
			c.svcs[i].samples = c.svcs[i].samples[:0]
		}
	}
	c.dictMu.RLock()
	names := len(c.hostTab) + len(c.instTab)
	c.dictMu.RUnlock()
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
		tr, err := c.lms.ObserveWatch(c.watchLocked(&sv.watchReg, monitor.Service, ""), minute, sum/float64(n), 0)
		if err != nil {
			return err
		}
		c.seen[2]++
		if tr != nil {
			c.queueTrigger(tr, sv.name)
		}
	}
	return nil
}

// queueTrigger queues a confirmed trigger under its landscape name.
func (c *Coordinator) queueTrigger(tr *monitor.Trigger, entity string) {
	tr.Entity = entity
	c.trigMu.Lock()
	c.triggers = append(c.triggers, tr)
	c.trigMu.Unlock()
}

// TakeTriggers drains the queued confirmed triggers in arrival order.
// The queue has its own lock, so collection swaps the slice without
// contending with (or blocking behind) an in-flight merge. A caller
// done with the returned slice may hand it back through
// RecycleTriggers; the spare backing array is then reused instead of
// reallocated, making the steady-state minute loop allocation-free.
func (c *Coordinator) TakeTriggers() []*monitor.Trigger {
	c.trigMu.Lock()
	defer c.trigMu.Unlock()
	out := c.triggers
	c.triggers = c.trigSpare
	c.trigSpare = nil
	return out
}

// RecycleTriggers returns a slice obtained from TakeTriggers to the
// queue's freelist. The elements are cleared (the coordinator must not
// pin processed triggers live) and the capacity kept. The caller must
// not touch the slice afterwards.
func (c *Coordinator) RecycleTriggers(trs []*monitor.Trigger) {
	if cap(trs) == 0 {
		return
	}
	for i := range trs {
		trs[i] = nil
	}
	c.trigMu.Lock()
	if c.trigSpare == nil {
		c.trigSpare = trs[:0]
	}
	c.trigMu.Unlock()
}

// CheckLiveness probes the hosts that stayed silent this minute — and
// the hosts already considered dead, so a healed partition is noticed —
// and returns the hosts newly confirmed dead (after DeadAfter
// consecutive misses, probes included) and those newly recovered (after
// AliveAfter consecutive answered probes). A probe answer counts as a
// beat: a host whose heartbeats are lost but which still answers probes
// is degraded, not dead.
func (c *Coordinator) CheckLiveness(ctx context.Context, minute int) (dead, recovered []string) {
	for _, host := range append(c.live.Silent(minute), c.live.Down()...) {
		probeCtx, cancel := context.WithTimeout(ctx, c.ProbeTimeout)
		reply, err := c.tr.Call(probeCtx, host,
			wire.ProbeEnvelope(c.node, host, wire.Probe{Host: host, Minute: minute}))
		cancel()
		if err == nil && reply != nil && reply.Type == wire.TypeProbeAck {
			c.live.Beat(host, minute)
		}
		wire.ReleaseEnvelope(reply)
	}
	dead, recovered = c.live.Dead(minute), c.live.Recovered()
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
// buffered for it, backfill included (the host is dead; its last report
// must not resurface at the next merge). The liveness detector keeps
// tracking it: a healed partition is then reported by Recovered after
// the hysteresis streak, and the host's heartbeats re-register it.
func (c *Coordinator) Forget(host string) {
	hs := c.slotFor(host)
	sh := hs.lockShard()
	if b := hs.pending; b != nil {
		hs.pending = nil
		sh.free = append(sh.free, b)
	}
	sh.backfill = slices.DeleteFunc(sh.backfill, func(b *hostBeat) bool {
		if b.slot == hs {
			sh.free = append(sh.free, b)
		}
		return b.slot == hs
	})
	sh.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lms.Deregister(hs.key)
	hs.watch = monitor.Watch{}
}

// Release fully removes a host (orderly pool removal): monitor
// registration, buffered beats, the stale-replay watermark and
// liveness tracking all end, so the host is neither probed nor ever
// reported dead or recovered.
func (c *Coordinator) Release(host string) {
	c.Forget(host)
	hs := c.slotFor(host)
	sh := hs.lockShard()
	hs.lastMin = math.MinInt
	sh.mu.Unlock()
	c.live.Forget(host)
}
