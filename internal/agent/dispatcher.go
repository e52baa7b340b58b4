package agent

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"autoglobe/internal/obs"
	"autoglobe/internal/wire"
)

// DispatchConfig tunes the coordinator's action dispatcher.
type DispatchConfig struct {
	// From is the sender node name stamped on outgoing envelopes
	// (default CoordinatorNode).
	From string
	// Timeout bounds one delivery attempt (default 2s).
	Timeout time.Duration
	// MaxAttempts is how often an unacknowledged action is retried
	// before the dispatcher gives up (default 4).
	MaxAttempts int
	// BaseBackoff is the pause after the first failed attempt; each
	// further attempt doubles it up to MaxBackoff (defaults 25ms / 1s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed drives the backoff jitter deterministically (each host lane
	// derives its own stream from it, so jitter stays replayable however
	// concurrent callers interleave).
	Seed uint64
	// Sleep and Now are clock hooks for tests (Now defaults to
	// time.Now). A nil Sleep uses a pooled timer that also honours
	// context cancellation — a retrying dispatch stops backing off the
	// moment its caller gives up — while a test-provided Sleep is
	// called as before.
	Sleep func(time.Duration)
	Now   func() time.Time
}

func (c DispatchConfig) withDefaults() DispatchConfig {
	if c.From == "" {
		c.From = CoordinatorNode
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 25 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// DispatchStats counts dispatcher outcomes, for tests and the console.
type DispatchStats struct {
	// Actions is the number of logical operations dispatched.
	Actions int
	// Retries counts re-sent attempts (lost requests or lost acks).
	Retries int
	// Duplicates counts acks served from an agent's idempotency cache —
	// evidence a retry re-delivered an already-applied operation.
	Duplicates int
	// Nacks counts agent rejections (permanent failures).
	Nacks int
	// Expired counts operations abandoned after MaxAttempts.
	Expired int
	// Recycled counts idempotency keys reused from a host lane's
	// freelist instead of minted — the steady-state zero-allocation
	// path (see hostLane).
	Recycled int
}

// NackError reports that the agent received the request and refused it.
// It is permanent: retrying would yield the same answer, so the
// dispatcher surfaces it immediately and the transaction layer
// compensates.
type NackError struct {
	Host string
	Ack  wire.ActionAck
}

func (e *NackError) Error() string {
	return fmt.Sprintf("agent: %s rejected %s: %s", e.Host, e.Ack.Key, e.Ack.Error)
}

// keyReuseLag is how many fresh agent-cache inserts a host lane must
// observe after a key retires before the key may be minted again. It
// equals ackCacheCap (the agent's FIFO idempotency-cache capacity):
// once that many younger entries were cached, the agent has provably
// evicted the retired key, so reuse can never be answered from a stale
// cache line. Only keys whose dispatch completed with a clean
// first-attempt, non-duplicate ack retire into the freelist — any key
// that was retried, duplicated or held may still have a stray copy in
// the network, and is simply never reused.
const keyReuseLag = ackCacheCap

// recycledKey is a retired idempotency key parked in a lane freelist.
type recycledKey struct {
	key string
	at  uint64 // lane insert count at retirement; reusable at at+keyReuseLag
}

// hostLane is the per-host dispatch state: the backoff jitter stream,
// the agent-cache insert counter that drives key recycling, and the
// FIFO freelist of reusable keys. Its mutex makes concurrent Do callers
// to the same host safe; the order they reach the agent in is theirs.
type hostLane struct {
	mu      sync.Mutex
	rng     *rand.Rand
	epoch   uint64 // epoch the parked keys were minted under
	inserts uint64 // fresh terminal answers the agent cached for us
	free    []recycledKey
	head    int // freelist FIFO cursor (pop side)
}

// newHostLane derives the lane's jitter stream from the dispatcher
// seed and the host name, so each host draws deterministic jitter
// whatever the other hosts' traffic.
func newHostLane(seed uint64, host string) *hostLane {
	h := fnv.New64a()
	h.Write([]byte(host))
	return &hostLane{rng: rand.New(rand.NewSource(int64(seed^h.Sum64()) + 41))}
}

// settle records a dispatch's terminal outcome against the lane's
// model of the agent cache: every fresh (non-duplicate) terminal
// answer is one cache insert at the agent, and recycleKey — when
// non-empty — parks the key for reuse once keyReuseLag further inserts
// guarantee its eviction. Inserts the dispatcher does not know about
// (held deliveries landing late) only evict earlier, so the lag stays
// sufficient.
func (ln *hostLane) settle(epoch uint64, recycleKey string, freshInsert bool) {
	if !freshInsert && recycleKey == "" {
		return
	}
	ln.mu.Lock()
	if freshInsert {
		ln.inserts++
	}
	if recycleKey != "" && ln.epoch == epoch {
		if ln.head > 0 && len(ln.free) == cap(ln.free) {
			// Compact in place so the steady state (pop one, park one)
			// never reallocates the backing array.
			n := copy(ln.free, ln.free[ln.head:])
			ln.free = ln.free[:n]
			ln.head = 0
		}
		ln.free = append(ln.free, recycledKey{key: recycleKey, at: ln.inserts})
	}
	ln.mu.Unlock()
}

// Dispatcher sends action requests to agents with timeout, bounded
// exponential backoff with deterministic jitter, and retries. Lost
// messages and lost acks are indistinguishable to it — both retry with
// the same idempotency key, and the agent's cache keeps re-delivery
// safe. One call carries one action; it is safe for concurrent use,
// and the healthy dispatch path is lock-light (atomic counters, a
// read-locked lane lookup) and allocation-free (pooled envelopes and
// attempt contexts, recycled idempotency keys).
type Dispatcher struct {
	cfg DispatchConfig
	tr  wire.Transport

	seq     atomic.Uint64
	actions atomic.Int64
	retries atomic.Int64
	dups    atomic.Int64
	nacks   atomic.Int64
	expired atomic.Int64
	reused  atomic.Int64

	metrics atomic.Pointer[dispatchMetrics]
	tracer  atomic.Pointer[obs.Tracer]
	journal atomic.Pointer[CoordinatorJournal]
	epoch   atomic.Uint64

	lanesMu sync.RWMutex
	lanes   map[string]*hostLane
}

// NewDispatcher builds a dispatcher over the transport.
func NewDispatcher(cfg DispatchConfig, tr wire.Transport) *Dispatcher {
	cfg = cfg.withDefaults()
	return &Dispatcher{
		cfg:   cfg,
		tr:    tr,
		lanes: make(map[string]*hostLane),
	}
}

// Instrument attaches an obs registry: subsequent dispatches count
// attempts, acks, nacks, duplicates, expirations and compensations.
// A nil registry leaves the dispatcher uninstrumented.
func (d *Dispatcher) Instrument(r *obs.Registry) {
	d.metrics.Store(newDispatchMetrics(r))
}

// Trace attaches a tracer: every completed dispatch appends one
// per-host TraceDispatch event to the open control-loop trace.
func (d *Dispatcher) Trace(tr *obs.Tracer) {
	d.tracer.Store(tr)
}

// AttachJournal makes the dispatcher crash-safe: every dispatch is
// write-ahead journaled before it reaches the transport, every terminal
// outcome (ack or NACK) is journaled when it arrives, and outgoing
// envelopes are stamped with the journal's epoch so agents can reject
// traffic from superseded incarnations. Keys minted after attachment
// are epoch-scoped ("from-e<epoch>-<seq>"), so a recovered incarnation
// can never collide with its predecessor's keys in an agent's
// idempotency cache (parked keys from an older epoch are discarded,
// never reused). A nil journal detaches.
func (d *Dispatcher) AttachJournal(cj *CoordinatorJournal) {
	var epoch uint64
	if cj != nil {
		epoch = cj.Epoch()
	}
	d.journal.Store(cj)
	d.epoch.Store(epoch)
}

// Journal returns the attached coordinator journal, or nil.
func (d *Dispatcher) Journal() *CoordinatorJournal {
	return d.journal.Load()
}

// Stats returns a snapshot of the dispatch counters.
func (d *Dispatcher) Stats() DispatchStats {
	return DispatchStats{
		Actions:    int(d.actions.Load()),
		Retries:    int(d.retries.Load()),
		Duplicates: int(d.dups.Load()),
		Nacks:      int(d.nacks.Load()),
		Expired:    int(d.expired.Load()),
		Recycled:   int(d.reused.Load()),
	}
}

// lane returns the host's dispatch lane, creating it on first use.
func (d *Dispatcher) lane(host string) *hostLane {
	d.lanesMu.RLock()
	ln := d.lanes[host]
	d.lanesMu.RUnlock()
	if ln != nil {
		return ln
	}
	d.lanesMu.Lock()
	defer d.lanesMu.Unlock()
	if ln = d.lanes[host]; ln == nil {
		ln = newHostLane(d.cfg.Seed, host)
		d.lanes[host] = ln
	}
	return ln
}

// mintKey returns an idempotency key for the lane: a parked key whose
// agent-cache eviction is proven (the zero-allocation steady state),
// or a freshly formatted one. With a journal attached the key is
// epoch-scoped: two coordinator incarnations can never mint the same
// key, so an agent's cached answer is always for the incarnation that
// asked. An epoch change empties the lane's freelist — parked keys
// embed the old epoch and must not resurface.
func (d *Dispatcher) mintKey(ln *hostLane, epoch uint64) string {
	ln.mu.Lock()
	if ln.epoch != epoch {
		ln.free = ln.free[:0]
		ln.head = 0
		ln.epoch = epoch
	}
	if ln.head < len(ln.free) && ln.inserts >= ln.free[ln.head].at+keyReuseLag {
		k := ln.free[ln.head].key
		ln.free[ln.head] = recycledKey{}
		ln.head++
		if ln.head == len(ln.free) {
			ln.free = ln.free[:0]
			ln.head = 0
		}
		ln.mu.Unlock()
		d.reused.Add(1)
		return k
	}
	ln.mu.Unlock()
	seq := d.seq.Add(1)
	if epoch > 0 {
		return fmt.Sprintf("%s-e%d-%06d", d.cfg.From, epoch, seq)
	}
	return fmt.Sprintf("%s-%06d", d.cfg.From, seq)
}

// backoff returns the jittered pause before retry attempt+1. The jitter
// spreads concurrent retriers over [50%, 100%] of the nominal delay;
// the per-lane seeded source keeps failing runs replayable.
func (d *Dispatcher) backoff(ln *hostLane, attempt int) time.Duration {
	delay := d.cfg.BaseBackoff << (attempt - 1)
	if delay > d.cfg.MaxBackoff || delay <= 0 {
		delay = d.cfg.MaxBackoff
	}
	ln.mu.Lock()
	f := 0.5 + 0.5*ln.rng.Float64()
	ln.mu.Unlock()
	return time.Duration(float64(delay) * f)
}

// backoffTimers pools the retry timers so a retrying dispatch neither
// allocates a timer per backoff nor blocks past its caller's
// cancellation.
var backoffTimers sync.Pool

// pause waits the backoff delay out: through the test hook when one is
// configured, otherwise on a pooled timer raced against the caller's
// context.
func (d *Dispatcher) pause(ctx context.Context, dur time.Duration) {
	if d.cfg.Sleep != nil {
		d.cfg.Sleep(dur)
		return
	}
	t, _ := backoffTimers.Get().(*time.Timer)
	if t == nil {
		t = time.NewTimer(dur)
	} else {
		t.Reset(dur)
	}
	select {
	case <-t.C:
	case <-ctx.Done():
		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
	}
	backoffTimers.Put(t)
}

// retryBudget is the wall-clock span of a full retry schedule — the
// default per-action deadline.
func (d *Dispatcher) retryBudget() time.Duration {
	return time.Duration(d.cfg.MaxAttempts)*d.cfg.Timeout +
		time.Duration(d.cfg.MaxAttempts)*d.cfg.MaxBackoff
}

// Do delivers one operation to the agent of req.Host and returns its
// ack. A missing idempotency key is minted; a missing deadline is set
// to the dispatcher's full retry budget, so an agent receiving a
// stale straggler after the dispatcher has given up rejects it.
func (d *Dispatcher) Do(ctx context.Context, req wire.ActionRequest) (wire.ActionAck, error) {
	return d.do(ctx, req, false)
}

// do is Do with the compensation flag the transaction layer sets on
// Undo dispatches, so metrics and traces can tell rollback traffic
// from forward progress. The retry loop is the healthy-path hot loop:
// pooled request envelope, pooled attempt context, atomic counters, and
// key retirement into the lane freelist.
func (d *Dispatcher) do(ctx context.Context, req wire.ActionRequest, compensation bool) (wire.ActionAck, error) {
	if req.Host == "" {
		return wire.ActionAck{}, fmt.Errorf("agent: dispatch without destination host")
	}
	m := d.metrics.Load()
	tracer := d.tracer.Load()
	cj := d.journal.Load()
	ln := d.lane(req.Host)
	epoch := d.epoch.Load()
	minted := false
	if req.Key == "" {
		req.Key = d.mintKey(ln, epoch)
		minted = true
	}
	if req.DeadlineUnixMS == 0 {
		req.DeadlineUnixMS = d.cfg.Now().Add(d.retryBudget()).UnixMilli()
	}
	d.actions.Add(1)
	if compensation {
		m.compensation()
	}
	if cj != nil {
		// Write-ahead: the dispatch record must be durable BEFORE the
		// action can reach the transport. A crash anywhere after this
		// point leaves the action pending, and recovery re-issues it
		// under the same idempotency key.
		if err := cj.LogDispatch(req); err != nil {
			return wire.ActionAck{}, err
		}
	}
	ev := obs.TraceDispatch{
		Host: req.Host, Op: string(req.Op), Key: req.Key,
		InstanceID: req.InstanceID, Compensation: compensation,
	}

	var lastErr error
	attempts := 0
	for attempt := 1; attempt <= d.cfg.MaxAttempts; attempt++ {
		attempts = attempt
		if attempt > 1 {
			d.pause(ctx, d.backoff(ln, attempt-1))
			d.retries.Add(1)
		}
		// The caller's context bounds the WHOLE retry loop, backoff
		// included — once it expires no further attempt may be made.
		if ctx.Err() != nil {
			if lastErr == nil {
				lastErr = wire.ErrTimeout
			}
			break
		}
		m.attempt()
		env := wire.AcquireActionEnvelope(d.cfg.From, req.Host, req)
		env.Epoch = epoch
		ac := acquireAttemptCtx(ctx, d.cfg.Timeout)
		reply, err := d.tr.Call(ac, req.Host, env)
		releaseAttemptCtx(ac)
		wire.ReleaseEnvelope(env)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break // the caller's deadline, not the attempt's
			}
			continue
		}
		if reply == nil || reply.Ack == nil {
			wire.ReleaseEnvelope(reply)
			lastErr = fmt.Errorf("agent: %s answered without ack", req.Host)
			continue
		}
		ack := *reply.Ack
		wire.ReleaseEnvelope(reply)
		if ack.Duplicate {
			d.dups.Add(1)
		}
		ev.Attempts = attempt
		ev.OK = ack.OK
		ev.Duplicate = ack.Duplicate
		if !ack.OK {
			d.nacks.Add(1)
			m.nack()
			ln.settle(epoch, "", !ack.Duplicate)
			ev.Error = ack.Error
			tracer.Dispatch(ev)
			if cj != nil {
				// A NACK is a known fate: journal it so recovery does not
				// re-issue the rejected action. Losing the record is safe —
				// a re-issue is answered from the agent's cache.
				cj.LogAck(req.Key, ack) //nolint:errcheck
			}
			return ack, &NackError{Host: req.Host, Ack: ack}
		}
		m.ok(ack.Duplicate)
		// A key retires into the freelist only when no stray copy of it
		// can still be in flight: exactly one attempt, answered fresh
		// (not from cache), for a key this dispatcher minted itself.
		recycle := ""
		if minted && attempt == 1 && !ack.Duplicate {
			recycle = req.Key
		}
		ln.settle(epoch, recycle, !ack.Duplicate)
		tracer.Dispatch(ev)
		if cj != nil {
			if jerr := cj.LogAck(req.Key, ack); jerr != nil {
				// The operation applied but its fate could not be made
				// durable. Surfacing the journal failure lets the
				// transaction layer compensate; the agent's idempotency
				// cache keeps any later re-issue harmless.
				return ack, fmt.Errorf("agent: %s applied but journal failed: %w", req.Key, jerr)
			}
		}
		return ack, nil
	}
	d.expired.Add(1)
	m.expire()
	err := fmt.Errorf("agent: %s %s on %s: no ack after %d attempts: %w",
		req.Op, req.InstanceID, req.Host, d.cfg.MaxAttempts, lastErr)
	ev.Attempts = attempts
	ev.OK = false
	ev.Error = err.Error()
	tracer.Dispatch(ev)
	if cj != nil {
		// Giving up IS a known fate: the caller (the transaction layer)
		// handles the failure now — compensating the completed prefix —
		// so a later recovery must NOT resurrect this action. Journal the
		// abandonment as a terminal record; the action's own deadline
		// keeps any straggler delivery rejected agent-side. Only a crash
		// in the window between the dispatch record and this one leaves
		// the action pending for recovery to resolve.
		cj.LogAck(req.Key, wire.ActionAck{Key: req.Key, OK: false, Error: "abandoned: " + err.Error()}) //nolint:errcheck
	}
	return wire.ActionAck{}, err
}

// ---------------------------------------------------------------------
// Pooled per-attempt contexts
// ---------------------------------------------------------------------

// attemptCtx is a pooled deadline context for one delivery attempt.
// The synchronous transports (the loopback) only ever poll Err(), so
// the healthy path materialises no timer, no channel and no derived
// context — zero allocations per attempt, and the struct returns to
// the pool. A transport that selects on Done() (HTTP under latency)
// lazily promotes the context to a real context.WithDeadline — and
// thereby escapes it: net/http derives a cancel context from the
// request context whose teardown runs asynchronously after Call
// returns, reading the parent (this struct) from the connection's
// read loop. An escaped attemptCtx is therefore never reused — its
// inner context is cancelled and the GC takes the husk.
type attemptCtx struct {
	parent   context.Context
	deadline time.Time

	mu     sync.Mutex
	inner  context.Context
	cancel context.CancelFunc
}

var attemptCtxPool = sync.Pool{New: func() any { return new(attemptCtx) }}

func acquireAttemptCtx(parent context.Context, timeout time.Duration) *attemptCtx {
	c := attemptCtxPool.Get().(*attemptCtx)
	c.parent = parent
	c.deadline = time.Now().Add(timeout)
	if pd, ok := parent.Deadline(); ok && pd.Before(c.deadline) {
		c.deadline = pd
	}
	return c
}

func releaseAttemptCtx(c *attemptCtx) {
	c.mu.Lock()
	cancel := c.cancel
	c.mu.Unlock()
	if cancel != nil {
		// Done() was materialised, so the context may have been captured
		// by a derived context whose asynchronous teardown still reads
		// this struct. Cancel the timer and abandon the struct — writing
		// any field here would race with that teardown.
		cancel()
		return
	}
	c.parent = nil
	attemptCtxPool.Put(c)
}

// Deadline implements context.Context.
func (c *attemptCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// Done implements context.Context, materialising the real timer-backed
// context on first use.
func (c *attemptCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inner == nil {
		c.inner, c.cancel = context.WithDeadline(c.parent, c.deadline)
	}
	return c.inner.Done()
}

// Err implements context.Context.
func (c *attemptCtx) Err() error {
	if err := c.parent.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	inner := c.inner
	c.mu.Unlock()
	if inner != nil {
		return inner.Err()
	}
	if !time.Now().Before(c.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// Value implements context.Context.
func (c *attemptCtx) Value(key any) any { return c.parent.Value(key) }
