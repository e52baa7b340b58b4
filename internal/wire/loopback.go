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
	nodes    map[string]*endpoint
	isolated int // endpoints isolated; a sender is looked up only while some are
	closed   bool
	dropRate float64
	rng      *rand.Rand

	calls   int
	dropped int

	intern *Interner

	metrics *wireMetrics
}

// endpoint is one node: its handler and the faults armed against it,
// guarded by Loopback.mu, so a call looks its destination up once.
// Faults may be armed before Listen and outlive Unlisten.
type endpoint struct {
	h             Handler  // nil while nothing listens
	dropNext      int      // calls to swallow before the handler runs
	dropReplyNext int      // replies to swallow after the handler ran
	dupNext       int      // deliveries to run through the handler twice
	holdNext      int      // deliveries to park for later release
	held          [][]byte // parked frames, as they were in flight
	latency       time.Duration
	isolated      bool
}

// NewLoopback returns an empty loopback network.
func NewLoopback() *Loopback {
	return &Loopback{nodes: make(map[string]*endpoint), intern: NewInterner()}
}

// node returns the endpoint of name, creating it. Callers hold l.mu.
func (l *Loopback) node(name string) *endpoint {
	ep := l.nodes[name]
	if ep == nil {
		ep = &endpoint{}
		l.nodes[name] = ep
	}
	return ep
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
	ep := l.node(node)
	if ep.h != nil {
		return errDuplicateListener(node)
	}
	ep.h = h
	return nil
}

// Unlisten implements Transport: subsequent calls to the node fail with
// ErrNoRoute, exactly like a crashed process whose port went away. The
// node may Listen again later (a restart). Held messages for the node
// are discarded — the process they were addressed to is gone.
func (l *Loopback) Unlisten(node string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ep := l.node(node)
	ep.h, ep.held = nil, nil
	return nil
}

func errDuplicateListener(node string) error {
	return &listenerError{node}
}

type listenerError struct{ node string }

func (e *listenerError) Error() string { return "wire: node " + e.node + " already listening" }

// Call implements Transport. Faults apply in order: isolation, drops,
// random drops, holds, duplicates, latency, handler, reply drops. A
// swallowed message or reply surfaces as ErrTimeout, exactly what a
// caller waiting for an ack over a real network would see.
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
	defer m.observe(clock())
	ep := l.nodes[node]
	if ep == nil || ep.h == nil {
		l.mu.Unlock()
		return nil, ErrNoRoute
	}
	if ep.isolated || l.isolated > 0 && l.nodes[env.From] != nil && l.nodes[env.From].isolated {
		l.dropped++
		l.mu.Unlock()
		return nil, ErrTimeout
	}
	if ep.dropNext > 0 {
		ep.dropNext--
		l.dropped++
		l.mu.Unlock()
		return nil, ErrTimeout
	}
	if l.dropRate > 0 && l.rng != nil && l.rng.Float64() < l.dropRate {
		l.dropped++
		l.mu.Unlock()
		return nil, ErrTimeout
	}
	if ep.holdNext > 0 {
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
		ep.holdNext--
		ep.held = append(ep.held, frame)
		l.dropped++
		l.mu.Unlock()
		return nil, ErrTimeout
	}
	dup := ep.dupNext > 0
	if dup {
		ep.dupNext--
	}
	// Only a reply drop armed by now can swallow this call's reply.
	h, lat, dropReply := ep.h, ep.latency, ep.dropReplyNext > 0
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
	// heap-allocated on every call. The reply is encoded into it, except
	// a duplicate's first reply: the frame is read again.
	buf := acquireFrame()
	frame, err := AppendEnvelope((*buf)[:0], env)
	*buf = frame
	var reply *Envelope
	if err == nil {
		if dup {
			// Duplicate delivery: the network hands the same frame to the
			// handler twice (a replayed packet). The first reply vanishes;
			// the caller sees only the second — which an idempotent
			// receiver answers from its applied cache without re-executing.
			scratch := acquireFrame()
			first, _ := l.deliver(h, frame, scratch)
			releaseFrame(scratch)
			ReleaseEnvelope(first) // swallowed, like a reply lost in transit
		}
		reply, err = l.deliver(h, frame, buf)
	}
	releaseFrame(buf)
	if err != nil {
		return nil, err
	}

	if dropReply {
		l.mu.Lock()
		if ep.dropReplyNext > 0 {
			ep.dropReplyNext--
			l.dropped++
			l.mu.Unlock()
			ReleaseEnvelope(reply)
			return nil, ErrTimeout
		}
		l.mu.Unlock()
	}
	return reply, nil
}

// deliver decodes one request frame into a pooled box, hands it to the
// handler as a socket's receiver would, and encodes the reply into out,
// which may be the request's frame: a decoded request holds no byte of
// it. Only then — a reply may point into its request, as over HTTP — is
// the box reset and the reply decoded into it; the caller releases it.
func (l *Loopback) deliver(h Handler, frame []byte, out *[]byte) (*Envelope, error) {
	req, _, err := DecodeEnvelope(frame, l.intern)
	if err != nil {
		return nil, err
	}
	reply, err := h(req)
	if err == nil && reply != nil {
		*out, err = AppendEnvelope((*out)[:0], reply)
	}
	if reply != req {
		ReleaseEnvelope(reply)
	}
	if err != nil || reply == nil {
		ReleaseEnvelope(req)
		return nil, err
	}
	bx := req.box
	bx.reset()
	if _, err := bx.decode(*out, l.intern); err != nil {
		ReleaseEnvelope(&bx.env)
		return nil, err
	}
	return &bx.env, nil
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
	l.node(node).dropNext += n
}

// DropReplyNext lets the next n messages to node execute but swallows
// their replies (lost acks) — the scenario idempotency keys exist for:
// the caller retries an operation the agent already applied. A call
// already past its faults when the drop is armed keeps its reply.
func (l *Loopback) DropReplyNext(node string, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.node(node).dropReplyNext += n
}

// DuplicateNext makes the next n messages to node run through its
// handler twice — the replayed-packet fault. The first invocation's
// reply is swallowed; the caller receives the second, which an
// idempotent receiver serves from its applied cache (the action
// executes once, is acked twice).
func (l *Loopback) DuplicateNext(node string, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.node(node).dupNext += n
}

// HoldNext parks the next n messages addressed to node instead of
// delivering them. The sender sees a timeout (and typically retries);
// the parked originals stay queued until DeliverHeld releases them —
// modelling messages delayed in a partitioned or congested link that
// arrive long after the sender gave up.
func (l *Loopback) HoldNext(node string, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.node(node).holdNext += n
}

// DeliverHeld releases every message parked for node to its handler, in
// arrival order, discarding the replies (the original callers are long
// gone). Combined with Heal it models delayed delivery after a
// partition: the stale in-flight traffic finally lands, and only the
// receiver's idempotency and epoch guards keep it harmless. Returns how
// many messages were delivered.
func (l *Loopback) DeliverHeld(node string) int {
	l.mu.Lock()
	ep := l.node(node)
	frames, h := ep.held, ep.h
	ep.held = nil
	l.mu.Unlock()
	if h == nil {
		return 0
	}
	scratch := acquireFrame()
	for _, frame := range frames {
		reply, _ := l.deliver(h, frame, scratch) // stale traffic: replies and errors vanish
		ReleaseEnvelope(reply)
	}
	releaseFrame(scratch)
	return len(frames)
}

// Isolate partitions a node from the network: every message to or from
// it vanishes until Heal.
func (l *Loopback) Isolate(node string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ep := l.node(node); !ep.isolated {
		ep.isolated = true
		l.isolated++
	}
}

// Heal reconnects an isolated node.
func (l *Loopback) Heal(node string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ep := l.node(node); ep.isolated {
		ep.isolated = false
		l.isolated--
	}
}

// Stats reports delivered-call and dropped-message counters.
func (l *Loopback) Stats() (calls, dropped int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.calls, l.dropped
}
