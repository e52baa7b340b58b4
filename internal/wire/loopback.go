package wire

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"autoglobe/internal/obs"
)

// Loopback is the in-memory transport: delivery is a synchronous
// function call in the caller's goroutine, so tests are deterministic,
// and an injectable fault model — latency, message drops, lost replies,
// partitions — turns it into a miniature unreliable network. Every call
// round-trips request and reply through the binary frame format, so the
// handler and the caller each receive a decoded copy, exactly as over a
// socket. It is the reference transport: the distributed simulator
// scenario must produce byte-identical action logs over Loopback and
// over HTTP.
type Loopback struct {
	mu       sync.Mutex
	handlers map[string]Handler
	closed   bool

	// fault state, all guarded by mu
	dropNext      map[string]int      // node -> calls to swallow before the handler runs
	dropReplyNext map[string]int      // node -> replies to swallow after the handler ran
	dupNext       map[string]int      // node -> deliveries to run through the handler twice
	holdNext      map[string]int      // node -> deliveries to park for later release
	held          map[string][][]byte // node -> parked frames, as they were in flight
	latency       map[string]time.Duration
	isolated      map[string]bool
	dropRate      float64
	rng           *rand.Rand

	calls   int
	dropped int

	intern *Interner

	metrics *wireMetrics
}

// NewLoopback returns an empty loopback network.
func NewLoopback() *Loopback {
	return &Loopback{
		handlers:      make(map[string]Handler),
		dropNext:      make(map[string]int),
		dropReplyNext: make(map[string]int),
		dupNext:       make(map[string]int),
		holdNext:      make(map[string]int),
		held:          make(map[string][][]byte),
		latency:       make(map[string]time.Duration),
		isolated:      make(map[string]bool),
		intern:        NewInterner(),
	}
}

// SetCodec is ignored: every call round-trips binary frames. It stays
// only for the benchmark rig, which still selects CodecBinary.
//
// Deprecated: do not call it.
func (l *Loopback) SetCodec(Codec) {}

// Instrument attaches an obs registry: every subsequent Call is counted
// by message type, failures by cause, and latency into a histogram. A
// nil registry leaves the transport uninstrumented.
func (l *Loopback) Instrument(r *obs.Registry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.metrics = newWireMetrics(r, "loopback")
}

// Listen implements Transport.
func (l *Loopback) Listen(node string, h Handler) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if _, dup := l.handlers[node]; dup {
		return errDuplicateListener(node)
	}
	l.handlers[node] = h
	return nil
}

// Unlisten removes a node's handler: subsequent calls to it fail with
// ErrNoRoute, exactly like a crashed process whose port went away. The
// node may Listen again later (a restart). Held messages for the node
// are discarded — the process they were addressed to is gone.
func (l *Loopback) Unlisten(node string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.handlers, node)
	delete(l.held, node)
	return nil
}

func errDuplicateListener(node string) error {
	return &listenerError{node}
}

type listenerError struct{ node string }

func (e *listenerError) Error() string { return "wire: node " + e.node + " already listening" }

// Call implements Transport. Faults are evaluated in order: isolation,
// scheduled drops, random drops, latency, handler, scheduled reply
// drops. A swallowed message or reply surfaces as ErrTimeout, exactly
// what a caller waiting for an ack over a real network would see.
func (l *Loopback) Call(ctx context.Context, node string, env *Envelope) (*Envelope, error) {
	reply, err := l.call(ctx, node, env)
	if err != nil {
		l.mu.Lock()
		m := l.metrics
		l.mu.Unlock()
		m.fail(err)
	}
	return reply, err
}

func (l *Loopback) call(ctx context.Context, node string, env *Envelope) (*Envelope, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	l.calls++
	m := l.metrics
	m.call(env.Type)
	start := time.Now()
	defer m.observe(start)
	h, ok := l.handlers[node]
	if !ok {
		l.mu.Unlock()
		return nil, ErrNoRoute
	}
	if l.isolated[node] || l.isolated[env.From] {
		l.dropped++
		l.mu.Unlock()
		return nil, ErrTimeout
	}
	if l.dropNext[node] > 0 {
		l.dropNext[node]--
		l.dropped++
		l.mu.Unlock()
		return nil, ErrTimeout
	}
	if l.dropRate > 0 && l.rng != nil && l.rng.Float64() < l.dropRate {
		l.dropped++
		l.mu.Unlock()
		return nil, ErrTimeout
	}
	if l.holdNext[node] > 0 {
		// The message is parked, not lost: DeliverHeld releases it to
		// the handler later (a delayed delivery, e.g. after a partition
		// heals). The caller meanwhile sees the same thing it would for
		// a loss — no ack within the deadline — and retries. The park
		// keeps the encoded frame, detached from the caller's envelope,
		// which the caller may reuse (the heartbeat reporter does) long
		// before the held copy lands.
		frame, err := AppendEnvelope(nil, env)
		if err != nil {
			l.mu.Unlock()
			return nil, err
		}
		l.holdNext[node]--
		l.held[node] = append(l.held[node], frame)
		l.dropped++
		l.mu.Unlock()
		return nil, ErrTimeout
	}
	dup := false
	if l.dupNext[node] > 0 {
		l.dupNext[node]--
		dup = true
	}
	lat := l.latency[node]
	l.mu.Unlock()

	if lat > 0 {
		select {
		case <-time.After(lat):
		case <-ctx.Done():
			return nil, ErrTimeout
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, ErrTimeout
	}

	// No defer releases the frame: with this many returns it would be
	// heap-allocated on every call.
	buf := AcquireFrame()
	frame, err := AppendEnvelope((*buf)[:0], env)
	*buf = frame
	var reply *Envelope
	if err == nil {
		if dup {
			// Duplicate delivery: the network hands the same frame to the
			// handler twice (a replayed packet). The first reply vanishes;
			// the caller sees only the second — which an idempotent
			// receiver answers from its applied cache without re-executing.
			first, _ := l.deliver(h, frame)
			ReleaseEnvelope(first) // swallowed, like a reply lost in transit
		}
		reply, err = l.deliver(h, frame)
	}
	ReleaseFrame(buf)
	if err != nil {
		return nil, err
	}

	l.mu.Lock()
	if l.dropReplyNext[node] > 0 {
		l.dropReplyNext[node]--
		l.dropped++
		l.mu.Unlock()
		ReleaseEnvelope(reply)
		return nil, ErrTimeout
	}
	l.mu.Unlock()
	return reply, nil
}

// deliver decodes one request frame and hands the copy to the handler,
// as a socket's receiver would; the reply round-trips through a frame of
// its own, so the caller receives a decoded reply it must
// ReleaseEnvelope.
func (l *Loopback) deliver(h Handler, frame []byte) (*Envelope, error) {
	req, _, err := DecodeEnvelope(frame, l.intern)
	if err != nil {
		return nil, err
	}
	reply, err := h(req)
	ReleaseEnvelope(req)
	if err != nil || reply == nil {
		ReleaseEnvelope(reply)
		return nil, err
	}
	buf := AcquireFrame()
	defer ReleaseFrame(buf)
	b, err := AppendEnvelope((*buf)[:0], reply)
	*buf = b
	ReleaseEnvelope(reply)
	if err != nil {
		return nil, err
	}
	out, _, err := DecodeEnvelope(b, l.intern)
	return out, err
}

// Close implements Transport.
func (l *Loopback) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}

// DropNext swallows the next n messages addressed to node before they
// reach its handler (lost requests).
func (l *Loopback) DropNext(node string, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dropNext[node] += n
}

// DropReplyNext lets the next n messages to node execute but swallows
// their replies (lost acks) — the scenario idempotency keys exist for:
// the caller retries an operation the agent already applied.
func (l *Loopback) DropReplyNext(node string, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dropReplyNext[node] += n
}

// DuplicateNext makes the next n messages to node run through its
// handler twice — the replayed-packet fault. The first invocation's
// reply is swallowed; the caller receives the second, which an
// idempotent receiver serves from its applied cache (the action
// executes once, is acked twice).
func (l *Loopback) DuplicateNext(node string, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dupNext[node] += n
}

// HoldNext parks the next n messages addressed to node instead of
// delivering them. The sender sees a timeout (and typically retries);
// the parked originals stay queued until DeliverHeld releases them —
// modelling messages delayed in a partitioned or congested link that
// arrive long after the sender gave up.
func (l *Loopback) HoldNext(node string, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.holdNext[node] += n
}

// DeliverHeld releases every message parked for node to its handler, in
// arrival order, discarding the replies (the original callers are long
// gone). Combined with Heal it models delayed delivery after a
// partition: the stale in-flight traffic finally lands, and only the
// receiver's idempotency and epoch guards keep it harmless. Returns how
// many messages were delivered.
func (l *Loopback) DeliverHeld(node string) int {
	l.mu.Lock()
	frames := l.held[node]
	delete(l.held, node)
	h, ok := l.handlers[node]
	l.mu.Unlock()
	if !ok {
		return 0
	}
	for _, frame := range frames {
		reply, _ := l.deliver(h, frame) // stale traffic: replies and errors vanish
		ReleaseEnvelope(reply)
	}
	return len(frames)
}

// Held reports how many messages are currently parked for node.
func (l *Loopback) Held(node string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.held[node])
}

// SetLatency delays every delivery to node; a call whose context
// expires during the delay times out.
func (l *Loopback) SetLatency(node string, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.latency[node] = d
}

// Isolate partitions a node from the network: every message to or from
// it vanishes until Heal.
func (l *Loopback) Isolate(node string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.isolated[node] = true
}

// Heal reconnects an isolated node.
func (l *Loopback) Heal(node string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.isolated, node)
}

// SetDropRate makes a fraction of deliveries vanish at random, driven
// by the given seed so a failing run replays exactly.
func (l *Loopback) SetDropRate(rate float64, seed uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dropRate = rate
	l.rng = rand.New(rand.NewSource(int64(seed)))
}

// Stats reports delivered-call and dropped-message counters.
func (l *Loopback) Stats() (calls, dropped int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.calls, l.dropped
}
