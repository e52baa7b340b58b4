package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autoglobe/internal/controller"
	"autoglobe/internal/wire"
)

// span is one timed interval of the traced run. Times are nanoseconds
// since the recorder was created; Parent is the index of the causing
// span (-1 for a minute span) and Minute ties a span to its
// control-plane minute.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Minute int32  `json:"minute"`
}

// recorder keeps the spans of one traced round in a pre-sized slice. A
// nil recorder records nothing, which is how the untraced run shares
// the loop: its only clock reads are the two around each minute.
type recorder struct {
	t0 time.Time
	mu sync.Mutex // wire spans arrive from dispatcher workers and HTTP handlers
	sp []span
	// cur is the open stage span: transport and executor wrappers, which
	// cannot be handed a parent, attach their spans to it.
	cur    atomic.Int32
	minute atomic.Int32
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), sp: make([]span, 0, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span under parent and returns its index.
func (r *recorder) begin(name string, parent int32) int32 {
	if r == nil {
		return -1
	}
	start := r.now()
	r.mu.Lock()
	id := int32(len(r.sp))
	r.sp = append(r.sp, span{Name: name, Start: start, Parent: parent, Minute: r.minute.Load()})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.sp[id].End = end
	r.mu.Unlock()
}

// stage opens a child of the minute span and makes it the parent of
// whatever the wrappers record until the next stage opens.
func (r *recorder) stage(name string, minuteSpan int32) int32 {
	id := r.begin(name, minuteSpan)
	if r != nil {
		r.cur.Store(id)
	}
	return id
}

// leaf records an already-measured child of the open stage.
func (r *recorder) leaf(name string, start, end int64) {
	r.mu.Lock()
	r.sp = append(r.sp, span{Name: name, Start: start, End: end, Parent: r.cur.Load(), Minute: r.minute.Load()})
	r.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover (children of one
// parent may overlap — action fan-out runs on worker goroutines — so
// the covered part is the union of their intervals).
func selfTimes(sp []span) map[string]int64 {
	kids := make(map[int32][]int32)
	for i := range sp {
		if p := sp[i].Parent; p >= 0 {
			kids[p] = append(kids[p], int32(i))
		}
	}
	self := make(map[string]int64)
	for i := range sp {
		d := sp[i].End - sp[i].Start
		ks := kids[int32(i)]
		sort.Slice(ks, func(a, b int) bool { return sp[ks[a]].Start < sp[ks[b]].Start })
		var covered, hi int64
		hi = sp[i].Start
		for _, k := range ks {
			s, e := max(sp[k].Start, hi), min(sp[k].End, sp[i].End)
			if e > s {
				covered += e - s
				hi = e
			}
		}
		self[sp[i].Name] += d - covered
	}
	return self
}

// totals returns the summed duration and the count per span name.
func totals(sp []span) (dur map[string]int64, n map[string]int) {
	dur, n = make(map[string]int64), make(map[string]int)
	for i := range sp {
		dur[sp[i].Name] += sp[i].End - sp[i].Start
		n[sp[i].Name]++
	}
	return dur, n
}

// writeTrace dumps the spans of a round as one JSON document.
func writeTrace(path, name string, seed uint64, sp []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{name, seed, sp})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// wireKinds are the envelope kinds the transport wrapper tells apart.
var wireKinds = []wire.MsgType{wire.TypeHeartbeat, wire.TypeAction, wire.TypeProbe, wire.TypeLease}

// timedTransport wraps the plane's transport from outside: it counts
// every Call by envelope kind (both runs) and, in the traced run, times
// each one as a wire.<kind> span under the open stage and sizes
// heartbeat frames. The wrapped transport is untouched, so the program
// runs exactly the code it runs in production.
type timedTransport struct {
	inner wire.Transport
	rec   *recorder
	calls [4]atomic.Int64
	other atomic.Int64
	// Heartbeats are sent by the single driver goroutine, so the frame
	// buffer and byte counters need no lock. One heartbeat in sizeEvery is
	// sized: frames differ by a few bytes, and encoding every one of them
	// again cost more than all the spans together.
	frame   []byte
	hbBytes int64
	hbSized int64
}

const sizeEvery = 16

func kindIndex(t wire.MsgType) int {
	for i, k := range wireKinds {
		if k == t {
			return i
		}
	}
	return -1
}

func (t *timedTransport) Listen(node string, h wire.Handler) error { return t.inner.Listen(node, h) }
func (t *timedTransport) Close() error                             { return t.inner.Close() }

// Unlisten forwards the optional method Election.KillLeader type-asserts
// on the plane's transport; without it a killed leader would keep
// answering and the drill would measure nothing.
func (t *timedTransport) Unlisten(node string) error {
	if u, ok := t.inner.(interface{ Unlisten(string) error }); ok {
		return u.Unlisten(node)
	}
	return nil
}

func (t *timedTransport) Call(ctx context.Context, node string, env *wire.Envelope) (*wire.Envelope, error) {
	k := kindIndex(env.Type)
	if k < 0 {
		t.other.Add(1)
		return t.inner.Call(ctx, node, env)
	}
	t.calls[k].Add(1)
	if t.rec == nil {
		return t.inner.Call(ctx, node, env)
	}
	start := t.rec.now()
	reply, err := t.inner.Call(ctx, node, env)
	t.rec.leaf("wire."+string(env.Type), start, t.rec.now())
	if k == 0 && err == nil && t.calls[0].Load()%sizeEvery == 0 {
		t.hbBytes += t.frameLen(env) + t.frameLen(reply)
		t.hbSized++
	}
	return reply, err
}

func (t *timedTransport) frameLen(env *wire.Envelope) int64 {
	if env == nil {
		return 0
	}
	b, err := wire.AppendEnvelope(t.frame[:0], env)
	if err != nil {
		return 0
	}
	t.frame = b
	return int64(len(b))
}

func (t *timedTransport) total() int64 {
	n := t.other.Load()
	for i := range t.calls {
		n += t.calls[i].Load()
	}
	return n
}

// timedExecutor wraps the inner model executor (below the dispatching
// layer): what it times is the model mutation and everything hanging
// off the deployment's watchers (placement index refresh).
type timedExecutor struct {
	inner controller.Executor
	rec   *recorder
	n     int
}

func (e *timedExecutor) Execute(d *controller.Decision) error {
	e.n++
	if e.rec == nil {
		return e.inner.Execute(d)
	}
	start := e.rec.now()
	err := e.inner.Execute(d)
	e.rec.leaf("exec.apply", start, e.rec.now())
	return err
}
