package wire

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"autoglobe/internal/obs"
)

// WirePath is the HTTP endpoint every node serves the protocol on.
const WirePath = "/autoglobe/v1/wire"

// HTTP is the TCP transport: each listening node runs a stdlib
// net/http server accepting binary frames on WirePath, and calls POST
// to the destination's base URL. Node names map to base URLs through an
// internal peer table — filled automatically for nodes listening on the
// same transport instance (single-process tests) and explicitly via
// Register for real multi-process landscapes (cmd/autoglobe-agentd).
type HTTP struct {
	// DefaultListenAddr, when non-empty, is the address Listen binds
	// instead of an ephemeral localhost port — e.g. "0.0.0.0:7700" for a
	// daemon on a routable interface. Set it before the first Listen; it
	// only makes sense for processes hosting a single node (each Listen
	// binds the address once).
	DefaultListenAddr string

	// Codec is ignored: every call and every reply is a binary frame. It
	// stays only for the benchmark rig, which still assigns CodecBinary.
	//
	// Deprecated: leave it unset.
	Codec Codec

	// Server hardening knobs, applied to every server ListenOn starts.
	// Zero values pick conservative defaults (see newServer): a slow or
	// stalled client must never pin a handler goroutine forever. Set
	// before the first Listen.
	ReadHeaderTimeout time.Duration // default 5s
	ReadTimeout       time.Duration // default 30s
	WriteTimeout      time.Duration // default 30s
	IdleTimeout       time.Duration // default 2m
	MaxHeaderBytes    int           // default 64 KiB

	mu      sync.Mutex
	peers   map[string]string       // node -> base URL
	servers map[string]*http.Server // node -> the server ListenOn started
	extra   map[string]http.Handler // Mount'ed sidecar handlers
	closed  bool
	metrics *wireMetrics

	client *http.Client
	intern *Interner
}

// NewHTTP returns an HTTP transport with a default client.
func NewHTTP() *HTTP {
	return &HTTP{
		peers:   make(map[string]string),
		servers: make(map[string]*http.Server),
		client:  &http.Client{Timeout: 30 * time.Second},
		intern:  NewInterner(),
	}
}

// Instrument attaches an obs registry: every subsequent Call is counted
// by message type, failures by cause, latency into a histogram, and
// envelope bytes by direction. A nil registry leaves the transport
// uninstrumented. Safe to call before or after Listen.
func (t *HTTP) Instrument(r *obs.Registry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.metrics = newWireMetrics(r, "http")
}

// Mount registers a sidecar HTTP handler (e.g. obs.Handler's /metrics
// and /healthz) served by every listener this transport starts. Call
// before Listen/ListenOn; handlers mounted later only appear on
// listeners started afterwards. The WirePath route cannot be shadowed.
func (t *HTTP) Mount(path string, h http.Handler) {
	if path == "" || path == WirePath || h == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.extra == nil {
		t.extra = make(map[string]http.Handler)
	}
	t.extra[path] = h
}

// Listen implements Transport: it binds DefaultListenAddr (fallback: an
// ephemeral localhost port) for the node and registers the node → URL
// mapping locally. Use ListenOn to control the address per node.
func (t *HTTP) Listen(node string, h Handler) error {
	addr := t.DefaultListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	_, err := t.ListenOn(node, addr, h)
	return err
}

// ListenOn binds the given address for the node and returns the node's
// base URL (useful with ":0" ports).
func (t *HTTP) ListenOn(node, addr string, h Handler) (string, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return "", ErrClosed
	}
	if _, dup := t.peers[node]; dup {
		t.mu.Unlock()
		return "", errDuplicateListener(node)
	}
	extra := make(map[string]http.Handler, len(t.extra))
	for p, eh := range t.extra {
		extra[p] = eh
	}
	t.mu.Unlock()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc(WirePath, func(w http.ResponseWriter, r *http.Request) {
		t.serveWire(w, r, h)
	})
	for p, eh := range extra {
		mux.Handle(p, eh)
	}
	srv := t.newServer(mux)
	go srv.Serve(ln) //nolint:errcheck // Serve returns on Close

	base := "http://" + ln.Addr().String()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		srv.Close()
		return "", ErrClosed
	}
	t.peers[node] = base
	t.servers[node] = srv
	return base, nil
}

// newServer builds a hardened http.Server: every timeout the stdlib
// leaves at "unlimited" is capped so a slow-loris client (partial
// header, stalled body) cannot pin connections indefinitely.
func (t *HTTP) newServer(mux *http.ServeMux) *http.Server {
	pick := func(v, def time.Duration) time.Duration {
		if v > 0 {
			return v
		}
		return def
	}
	maxHeader := t.MaxHeaderBytes
	if maxHeader <= 0 {
		maxHeader = 64 << 10
	}
	return &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: pick(t.ReadHeaderTimeout, 5*time.Second),
		ReadTimeout:       pick(t.ReadTimeout, 30*time.Second),
		WriteTimeout:      pick(t.WriteTimeout, 30*time.Second),
		IdleTimeout:       pick(t.IdleTimeout, 2*time.Minute),
		MaxHeaderBytes:    maxHeader,
	}
}

// Register maps a remote node name to its base URL (e.g.
// "http://10.0.0.7:7700") so Call can reach nodes served by another
// process.
func (t *HTTP) Register(node, baseURL string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[node] = baseURL
}

// Addr returns the base URL registered for a node.
func (t *HTTP) Addr(node string) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	u, ok := t.peers[node]
	return u, ok
}

// readerPool recycles the request-body readers of outgoing calls.
var readerPool = sync.Pool{New: func() any { return new(bytes.Reader) }}

// readBody drains r (capped at maxFrame bytes) into the pooled buffer,
// growing it geometrically, without the per-call allocations of
// io.ReadAll.
func readBody(r io.Reader, buf *[]byte) error {
	b := (*buf)[:0]
	lr := io.LimitReader(r, maxFrame)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := lr.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			*buf = b
			return nil
		}
		if err != nil {
			*buf = b
			return err
		}
	}
}

// serveWire handles one POSTed frame. A body that is not exactly one
// well-formed frame of this protocol version is refused with 400 before
// the handler runs; the reply goes back as a frame.
func (t *HTTP) serveWire(w http.ResponseWriter, r *http.Request, h Handler) {
	if r.Method != http.MethodPost {
		http.Error(w, "wire: POST only", http.StatusMethodNotAllowed)
		return
	}
	buf := acquireFrame()
	defer releaseFrame(buf)
	if err := readBody(r.Body, buf); err != nil {
		http.Error(w, "wire: read: "+err.Error(), http.StatusBadRequest)
		return
	}
	env, n, err := DecodeEnvelope(*buf, t.intern)
	if err != nil {
		http.Error(w, "wire: decode: "+err.Error(), http.StatusBadRequest)
		return
	}
	defer ReleaseEnvelope(env)
	if n != len(*buf) {
		http.Error(w, "wire: trailing bytes after frame", http.StatusBadRequest)
		return
	}
	reply, err := h(env)
	if err != nil {
		ReleaseEnvelope(reply)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if reply == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	defer ReleaseEnvelope(reply)
	// The body was read whole, and the request holds none of its bytes.
	b, err := AppendEnvelope((*buf)[:0], reply)
	*buf = b
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", BinaryContentType)
	w.Write(b) //nolint:errcheck // header already sent
}

// Call implements Transport.
func (t *HTTP) Call(ctx context.Context, node string, env *Envelope) (*Envelope, error) {
	reply, err := t.call(ctx, node, env)
	if err != nil {
		t.instruments().fail(err)
	}
	return reply, err
}

// instruments returns the current metric sinks (nil → no-op methods).
func (t *HTTP) instruments() *wireMetrics {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.metrics
}

func (t *HTTP) call(ctx context.Context, node string, env *Envelope) (*Envelope, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	base, ok := t.peers[node]
	client := t.client
	m := t.metrics
	t.mu.Unlock()
	if !ok {
		return nil, ErrNoRoute
	}
	m.call(env.Type)
	defer m.observe(clock())

	// Encode into a pooled frame and send it through a pooled reader:
	// the encode side of a call performs no steady-state allocations.
	frame := acquireFrame()
	defer releaseFrame(frame)
	payload, err := AppendEnvelope((*frame)[:0], env)
	*frame = payload
	if err != nil {
		return nil, fmt.Errorf("wire: encode: %w", err)
	}
	m.sent(len(payload))
	body := readerPool.Get().(*bytes.Reader)
	defer readerPool.Put(body)
	body.Reset(payload)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+WirePath, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", BinaryContentType)
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ErrTimeout
		}
		return nil, fmt.Errorf("wire: call %s: %w", node, err)
	}
	defer resp.Body.Close()
	rbuf := acquireFrame()
	defer releaseFrame(rbuf)
	if err := readBody(resp.Body, rbuf); err != nil {
		// A context deadline can expire mid-body just as well as
		// mid-connect: the caller asked for a bounded call, so both
		// surface as the same sentinel.
		if ctx.Err() != nil {
			return nil, ErrTimeout
		}
		return nil, fmt.Errorf("wire: call %s: read reply: %w", node, err)
	}
	reply := *rbuf
	m.received(len(reply))
	switch resp.StatusCode {
	case http.StatusOK:
		env, n, err := DecodeEnvelope(reply, t.intern)
		if err != nil {
			return nil, fmt.Errorf("wire: call %s: decode reply: %w", node, err)
		}
		if n != len(reply) {
			ReleaseEnvelope(env)
			return nil, fmt.Errorf("wire: call %s: trailing bytes after reply frame", node)
		}
		return env, nil
	case http.StatusNoContent:
		return nil, nil
	default:
		return nil, fmt.Errorf("wire: call %s: HTTP %d: %s", node, resp.StatusCode, bytes.TrimSpace(reply))
	}
}

// Unlisten implements Transport: the node's server is closed and its
// peer entry dropped, so calls to it fail with ErrNoRoute until a later
// Listen binds it again.
func (t *HTTP) Unlisten(node string) error {
	t.mu.Lock()
	srv := t.servers[node]
	delete(t.servers, node)
	delete(t.peers, node)
	t.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// Close implements Transport: shuts down every server this instance
// started.
func (t *HTTP) Close() error {
	t.mu.Lock()
	t.closed = true
	servers := t.servers
	t.servers = nil
	t.mu.Unlock()
	var firstErr error
	for _, srv := range servers {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		if err := srv.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
		cancel()
	}
	return firstErr
}
