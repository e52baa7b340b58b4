package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Codec is ignored: every transport speaks the length-prefixed binary
// frame format only (see DESIGN.md "The ingest plane"): a magic byte, a
// little-endian uint32 payload length, then a compact field encoding
// with uvarint lengths.
//
// Deprecated: Codec and CodecBinary stay only for the benchmark rig,
// which still passes CodecBinary to the no-op Loopback.SetCodec and
// HTTP.Codec.
type Codec uint8

// CodecBinary is the length-prefixed binary frame format.
//
// Deprecated: see Codec.
const CodecBinary Codec = 1

// BinaryContentType is the MIME type the HTTP transport labels frames
// with. The label is informative: the server decodes every body as a
// frame and refuses anything else.
const BinaryContentType = "application/x-autoglobe-wire"

// frameMagic is the first byte of every binary frame.
const frameMagic = 0xA7

// maxFrame bounds the payload length a decoder will accept, matching
// the HTTP transport's request-body cap. A lying length prefix larger
// than this is rejected before any allocation.
const maxFrame = 4 << 20

// binary payload kind bytes (follow the version byte). Kinds 7, 8 and 9
// are retired: they framed rule-base pushes and lookups, which no node
// sends since rule bases load from files only, and the decoder refuses
// them as unknown. Every other kind keeps its byte. The live kinds below
// kindHeartbeatIdx open with [From][To][uvarint Seq][uvarint Epoch]; the
// last three are the steady heartbeat round trip, numbers without names
// (DESIGN.md "The ingest plane"):
//
//	kindHeartbeatIdx  [uvarint seq][uvarint epoch][u64 session][uvarint host]
//	                  [varint minute][f64 cpu][f64 mem][uvarint n]
//	                  n × ([uvarint instance][f64 load])
//	kindAckBare       nothing: OK, and nothing else to say
//	kindAckIndex      [flags: 1 ok | 2 resync | 4 next][u64 session]
//	                  [uvarint host][uvarint n] n × [uvarint index]
//	                  [varint next minute: flag 4 only]
//
// An agent sends kindHeartbeatIdx only to the node whose kindAckIndex
// issued every number in it. A coordinator answers a named heartbeat
// with kindAckIndex (kindAckBare once its dictionary is full), an
// indexed one with kindAckBare, or with a resync kindAckIndex if it does
// not hold the session or an index; a heartbeat behind the coordinator's
// clock gets a kindAckIndex with the next minute. The encoder picks the
// kind from the payload; the decoder refuses a zero session or index in
// a heartbeat, and any index past 32 bits.
const (
	kindHeartbeat byte = 1 + iota
	kindAction
	kindAck
	kindProbe
	kindProbeAck
	kindHello
	_ // 7, 8, 9: retired rule-admin kinds
	_
	_
	kindLease
	kindLeaseAck
	kindHeartbeatIdx
	kindAckBare
	kindAckIndex
)

// kindFor picks the frame kind of an envelope: by type, and for the two
// heartbeat-path types by what the payload has to say.
func kindFor(e *Envelope) (byte, bool) {
	switch e.Type {
	case TypeHeartbeat:
		if e.Heartbeat.Indexed() {
			return kindHeartbeatIdx, true
		}
		return kindHeartbeat, true
	case TypeAction:
		return kindAction, true
	case TypeAck:
		switch a := e.Ack; {
		case a.Key != "" || a.Error != "" || a.Duplicate:
			return kindAck, true
		case a.Resync || a.Session != 0 || a.HostIndex != 0 || len(a.Indices) != 0 || a.NextMinute != 0:
			return kindAckIndex, true
		case a.OK && e.From == "" && e.To == "" && e.Seq == 0 && e.Epoch == 0:
			return kindAckBare, true
		}
		return kindAck, true
	case TypeProbe:
		return kindProbe, true
	case TypeProbeAck:
		return kindProbeAck, true
	case TypeHello:
		return kindHello, true
	case TypeLease:
		return kindLease, true
	case TypeLeaseAck:
		return kindLeaseAck, true
	}
	return 0, false
}

// kindType is the message type of each live frame kind; a retired or
// unknown kind has none.
var kindType = [...]MsgType{
	kindHeartbeat: TypeHeartbeat, kindHeartbeatIdx: TypeHeartbeat, kindAction: TypeAction,
	kindAck: TypeAck, kindAckBare: TypeAck, kindAckIndex: TypeAck, kindProbe: TypeProbe,
	kindProbeAck: TypeProbeAck, kindHello: TypeHello, kindLease: TypeLease, kindLeaseAck: TypeLeaseAck,
}

// ---------------------------------------------------------------------
// Frame buffer pool
// ---------------------------------------------------------------------

var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// acquireFrame returns a pooled byte slice (length 0) for encoding a
// frame into. Return it with releaseFrame when the bytes have been
// consumed.
func acquireFrame() *[]byte {
	return framePool.Get().(*[]byte)
}

// releaseFrame returns a frame buffer to the pool.
func releaseFrame(b *[]byte) {
	if b == nil || cap(*b) > maxFrame {
		return // don't cache giants
	}
	*b = (*b)[:0]
	framePool.Put(b)
}

// ---------------------------------------------------------------------
// Envelope pool
// ---------------------------------------------------------------------

// envBox carries an Envelope together with inline payload storage so a
// decoded hot-path message (heartbeat, ack, probe …) costs zero heap
// allocations: the envelope's payload pointer aims at the box's own
// field, and the heartbeat's Instances slice and the ack's Indices slice
// are reused across decodes.
type envBox struct {
	env   Envelope
	hb    Heartbeat
	act   ActionRequest
	ack   ActionAck
	probe Probe
	hello Hello
	lease Lease
}

var envPool = sync.Pool{New: func() any { return new(envBox) }}

func acquireBox() *envBox {
	bx := envPool.Get().(*envBox)
	bx.reset()
	return bx
}

// reset clears what the box's last use set: the envelope and the one
// payload it points at, which a decode sets before writing the payload.
// The Instances and Indices backing arrays stay for the next decode.
func (bx *envBox) reset() {
	switch e := &bx.env; {
	case e.Heartbeat != nil:
		bx.hb = Heartbeat{Instances: bx.hb.Instances[:0]}
	case e.Action != nil:
		bx.act = ActionRequest{}
	case e.Ack != nil:
		bx.ack = ActionAck{Indices: bx.ack.Indices[:0]}
	case e.Probe != nil:
		bx.probe = Probe{}
	case e.Hello != nil:
		bx.hello = Hello{}
	case e.Lease != nil:
		bx.lease = Lease{}
	}
	bx.env = Envelope{box: bx}
}

// ReleaseEnvelope returns a pooled envelope (one produced by
// DecodeEnvelope or an Acquire* constructor) to the pool. Envelopes
// built by the plain constructors, and the shared AckOKEnvelope, are
// untracked and the call is a no-op, so transports can release every
// reply unconditionally.
// Callers must not retain any pointer into the envelope (payload
// structs, the heartbeat's Instances backing array) past the release;
// strings remain valid (they are immutable and never recycled).
func ReleaseEnvelope(e *Envelope) {
	if e == nil || e.box == nil {
		return
	}
	bx := e.box
	e.box = nil
	envPool.Put(bx)
}

// AcquireAckEnvelope frames an action ack in a pooled envelope. The
// receiver of the reply releases it (transports do this after
// serialising; in-process callers after copying the ack). An ack passed
// without Indices keeps the box's empty pooled slice to append to. An
// answer with nothing to say but OK needs no box: AckOKEnvelope.
func AcquireAckEnvelope(from, to string, ack ActionAck) *Envelope {
	bx := acquireBox()
	if ack.Indices == nil {
		ack.Indices = bx.ack.Indices
	}
	bx.ack = ack
	bx.env = Envelope{Version: Version, Type: TypeAck, From: from, To: to, Ack: &bx.ack, box: bx}
	return &bx.env
}

var ackOK = Envelope{Version: Version, Type: TypeAck, Ack: &ActionAck{OK: true}}

// AckOKEnvelope returns the one shared bare OK ack, the answer to a
// steady indexed heartbeat: a 7-byte frame, and no box for
// ReleaseEnvelope to recycle. A handler may return it; nobody writes it.
func AckOKEnvelope() *Envelope { return &ackOK }

// AcquireActionEnvelope frames an action request in a pooled envelope —
// the dispatcher's sending half of the zero-allocation action path (the
// agent's AcquireAckEnvelope is the answering half). The caller releases
// it once the transport call returns: transports never retain a request
// past the call (both encode it into a frame first; the loopback parks a
// held message as that frame), so the box can be recycled immediately.
func AcquireActionEnvelope(from, to string, req ActionRequest) *Envelope {
	bx := acquireBox()
	bx.act = req
	bx.env = Envelope{Version: Version, Type: TypeAction, From: from, To: to, Action: &bx.act, box: bx}
	return &bx.env
}

// AcquireProbeAckEnvelope frames a probe ack in a pooled envelope.
func AcquireProbeAckEnvelope(from, to string, p Probe) *Envelope {
	bx := acquireBox()
	bx.probe = p
	bx.env = Envelope{Version: Version, Type: TypeProbeAck, From: from, To: to, Probe: &bx.probe, box: bx}
	return &bx.env
}

// AcquireLeaseAckEnvelope frames a lease-beacon reply in a pooled
// envelope — every standby and agent answers the leader's per-minute
// beacon, so the reply rides the pooled path like probe acks do.
func AcquireLeaseAckEnvelope(from, to string, l Lease) *Envelope {
	bx := acquireBox()
	bx.lease = l
	bx.env = Envelope{Version: Version, Type: TypeLeaseAck, From: from, To: to, Lease: &bx.lease, box: bx}
	return &bx.env
}

// ---------------------------------------------------------------------
// String interning
// ---------------------------------------------------------------------

// Interner deduplicates the small, recurring identifier vocabulary of
// a landscape (host names, service names, instance IDs, node names) so
// steady-state decoding performs zero string allocations: looking up a
// []byte key in a map[string]string does not allocate, and a hit
// returns the one canonical copy. It is safe for concurrent use.
type Interner struct {
	mu sync.Mutex
	m  map[string]string
}

// maxInternerEntries caps the table: once full it admits nothing more,
// so an adversarial stream of unique identifiers gets unpooled copies
// and cannot grow it — nor evict the vocabulary already established.
const maxInternerEntries = 8192

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{m: make(map[string]string, 256)}
}

// Intern returns the canonical string for b.
func (in *Interner) Intern(b []byte) string {
	if in == nil {
		return string(b)
	}
	in.mu.Lock()
	s, ok := in.m[string(b)] // compiler-recognised non-allocating lookup
	if !ok {
		s = string(b)
		if len(in.m) < maxInternerEntries {
			in.m[s] = s
		}
	}
	in.mu.Unlock()
	return s
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendEnvelope encodes e as one binary frame appended to dst and
// returns the extended slice. The frame is [magic][uint32 LE payload
// length][payload]; the length is back-patched after encoding, so no
// scratch buffer is needed.
func AppendEnvelope(dst []byte, e *Envelope) ([]byte, error) {
	if err := e.Validate(); err != nil {
		return dst, err
	}
	kind, ok := kindFor(e)
	if !ok {
		return dst, fmt.Errorf("wire: binary codec cannot frame type %q", e.Type)
	}
	dst = append(dst, frameMagic, 0, 0, 0, 0) // length back-patched below
	lenAt := len(dst) - 4
	start := len(dst)

	dst = append(dst, byte(e.Version), kind)
	if kind < kindHeartbeatIdx {
		dst = appendString(dst, e.From)
		dst = appendString(dst, e.To)
	}
	if kind <= kindHeartbeatIdx {
		dst = binary.AppendUvarint(dst, e.Seq)
		dst = binary.AppendUvarint(dst, e.Epoch)
	}

	switch kind { // kindAckBare has no payload
	case kindAckIndex:
		a := e.Ack
		var flags byte
		if a.OK {
			flags |= 1
		}
		if a.Resync {
			flags |= 2
		}
		if a.NextMinute != 0 {
			flags |= 4
		}
		dst = append(dst, flags)
		dst = binary.LittleEndian.AppendUint64(dst, a.Session)
		dst = binary.AppendUvarint(dst, uint64(a.HostIndex))
		dst = binary.AppendUvarint(dst, uint64(len(a.Indices)))
		for _, idx := range a.Indices {
			dst = binary.AppendUvarint(dst, uint64(idx))
		}
		if a.NextMinute != 0 {
			dst = binary.AppendVarint(dst, int64(a.NextMinute))
		}
	case kindHeartbeat, kindHeartbeatIdx:
		hb := e.Heartbeat
		if kind == kindHeartbeat {
			dst = appendString(dst, hb.Host)
		} else {
			dst = binary.LittleEndian.AppendUint64(dst, hb.Session)
			dst = binary.AppendUvarint(dst, uint64(hb.HostIndex))
		}
		dst = binary.AppendVarint(dst, int64(hb.Minute))
		dst = appendFloat(dst, hb.CPU)
		dst = appendFloat(dst, hb.Mem)
		dst = binary.AppendUvarint(dst, uint64(len(hb.Instances)))
		for i := range hb.Instances {
			s := &hb.Instances[i]
			if kind == kindHeartbeat {
				dst = appendString(dst, s.ID)
				dst = appendString(dst, s.Service)
			} else {
				dst = binary.AppendUvarint(dst, uint64(s.Index))
			}
			dst = appendFloat(dst, s.Load)
		}
	case kindAction:
		a := e.Action
		dst = appendString(dst, a.Key)
		dst = appendString(dst, string(a.Op))
		dst = appendString(dst, a.Host)
		dst = appendString(dst, a.Service)
		dst = appendString(dst, a.InstanceID)
		dst = binary.AppendVarint(dst, int64(a.Delta))
		dst = binary.AppendVarint(dst, a.DeadlineUnixMS)
	case kindAck:
		a := e.Ack
		dst = appendString(dst, a.Key)
		var flags byte
		if a.OK {
			flags |= 1
		}
		if a.Duplicate {
			flags |= 2
		}
		dst = append(dst, flags)
		dst = appendString(dst, a.Error)
	case kindProbe, kindProbeAck:
		p := e.Probe
		dst = appendString(dst, p.Host)
		dst = binary.AppendVarint(dst, int64(p.Minute))
	case kindHello:
		h := e.Hello
		dst = appendString(dst, h.Host)
		dst = appendFloat(dst, h.PerformanceIndex)
		dst = binary.AppendVarint(dst, int64(h.MemoryMB))
		dst = appendString(dst, h.Addr)
	case kindLease, kindLeaseAck:
		l := e.Lease
		dst = appendString(dst, l.Leader)
		dst = binary.AppendUvarint(dst, l.Epoch)
		dst = binary.AppendVarint(dst, int64(l.Minute))
	}

	payload := len(dst) - start
	if payload > maxFrame {
		return dst[:lenAt-1], fmt.Errorf("wire: frame payload %d exceeds %d-byte cap", payload, maxFrame)
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(payload))
	return dst, nil
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

type decoder struct {
	b  []byte
	in *Interner
}

var errShortFrame = fmt.Errorf("wire: truncated binary frame")

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, errShortFrame
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		return 0, errShortFrame
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *decoder) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.b)) {
		return nil, errShortFrame
	}
	s := d.b[:n]
	d.b = d.b[n:]
	return s, nil
}

// str decodes a length-prefixed string, allocating a fresh copy (for
// unique, unbounded values: idempotency keys, error texts, addresses).
func (d *decoder) str() (string, error) {
	b, err := d.bytes()
	return string(b), err
}

// ident decodes a length-prefixed identifier through the interner (for
// the recurring vocabulary: hosts, services, instance IDs, nodes).
func (d *decoder) ident() (string, error) {
	b, err := d.bytes()
	if err != nil {
		return "", err
	}
	return d.in.Intern(b), nil
}

// index decodes a session-dictionary number: at most 32 bits.
func (d *decoder) index() (uint32, error) {
	v, err := d.uvarint()
	if err == nil && v > math.MaxUint32 {
		err = fmt.Errorf("wire: session index %d exceeds 32 bits", v)
	}
	return uint32(v), err
}

func (d *decoder) u64() (uint64, error) {
	if len(d.b) < 8 {
		return 0, errShortFrame
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v, nil
}

func (d *decoder) float() (float64, error) {
	v, err := d.u64()
	return math.Float64frombits(v), err
}

func (d *decoder) byteVal() (byte, error) {
	if len(d.b) < 1 {
		return 0, errShortFrame
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v, nil
}

// DecodeEnvelope decodes one binary frame from the front of b and
// returns the envelope, the number of bytes consumed, and any error.
// The returned envelope is pooled — the caller must ReleaseEnvelope it
// (and must not retain payload pointers past the release). A nil
// interner falls back to plain string allocation. Malformed input —
// truncated frames, a length prefix that lies about the payload size,
// an unknown kind, trailing payload bytes — returns an error, never a
// panic (FuzzEnvelopeDecode enforces this).
func DecodeEnvelope(b []byte, in *Interner) (*Envelope, int, error) {
	bx := acquireBox()
	n, err := bx.decode(b, in)
	if err != nil {
		ReleaseEnvelope(&bx.env)
		return nil, 0, err
	}
	return &bx.env, n, nil
}

// decode fills a freshly acquired box from the frame at the front of b
// and returns the bytes consumed; a failed one may leave it half-written.
func (bx *envBox) decode(b []byte, in *Interner) (int, error) {
	if len(b) < 5 {
		return 0, errShortFrame
	}
	if b[0] != frameMagic {
		return 0, fmt.Errorf("wire: bad frame magic 0x%02X", b[0])
	}
	n := binary.LittleEndian.Uint32(b[1:5])
	if n > maxFrame {
		return 0, fmt.Errorf("wire: frame length %d exceeds %d-byte cap", n, maxFrame)
	}
	if uint64(len(b)-5) < uint64(n) {
		return 0, errShortFrame
	}
	consumed := 5 + int(n)
	d := decoder{b: b[5:consumed], in: in}

	if len(d.b) < 2 {
		return 0, errShortFrame
	}
	version, kind := d.b[0], d.b[1]
	d.b = d.b[2:]
	if int(version) != Version {
		return 0, fmt.Errorf("wire: protocol version %d, want %d", version, Version)
	}
	if int(kind) >= len(kindType) || kindType[kind] == "" {
		return 0, fmt.Errorf("wire: unknown binary kind %d", kind)
	}

	e := &bx.env
	e.Version = int(version)
	e.Type = kindType[kind]
	var err error
	if kind < kindHeartbeatIdx {
		if e.From, err = d.ident(); err == nil {
			e.To, err = d.ident()
		}
	}
	if err == nil && kind <= kindHeartbeatIdx {
		if e.Seq, err = d.uvarint(); err == nil {
			e.Epoch, err = d.uvarint()
		}
	}
	if err != nil {
		return 0, err
	}

	switch kind {
	case kindAckBare:
		e.Ack = &bx.ack
		bx.ack.OK = true
	case kindAckIndex:
		a := &bx.ack
		e.Ack = a
		var flags byte
		var count uint64
		if flags, err = d.byteVal(); err != nil {
			break
		}
		a.OK, a.Resync = flags&1 != 0, flags&2 != 0
		if a.Session, err = d.u64(); err != nil {
			break
		}
		if a.HostIndex, err = d.index(); err != nil {
			break
		}
		if count, err = d.uvarint(); err != nil {
			break
		}
		if count > uint64(len(d.b)) { // each index needs ≥ 1 byte
			err = errShortFrame
			break
		}
		for i := uint64(0); i < count; i++ {
			var idx uint32
			if idx, err = d.index(); err != nil {
				break
			}
			a.Indices = append(a.Indices, idx)
		}
		if err == nil && flags&4 != 0 {
			var next int64
			next, err = d.varint()
			a.NextMinute = int(next)
		}
	case kindHeartbeat, kindHeartbeatIdx:
		hb := &bx.hb
		e.Heartbeat = hb
		var minute int64
		var count uint64
		if kind == kindHeartbeat {
			hb.Host, err = d.ident()
		} else if hb.Session, err = d.u64(); err == nil {
			hb.HostIndex, err = d.index()
		}
		if err != nil {
			break
		}
		if minute, err = d.varint(); err != nil {
			break
		}
		hb.Minute = int(minute)
		if hb.CPU, err = d.float(); err != nil {
			break
		}
		if hb.Mem, err = d.float(); err != nil {
			break
		}
		if count, err = d.uvarint(); err != nil {
			break
		}
		if count > uint64(len(d.b)) { // each sample needs ≥ 1 byte
			err = errShortFrame
			break
		}
		for i := uint64(0); i < count; i++ {
			var s InstanceSample
			if kind == kindHeartbeatIdx {
				s.Index, err = d.index()
			} else if s.ID, err = d.ident(); err == nil {
				s.Service, err = d.ident()
			}
			if err != nil {
				break
			}
			if s.Load, err = d.float(); err != nil {
				break
			}
			hb.Instances = append(hb.Instances, s)
		}
		if err == nil && kind == kindHeartbeatIdx && !hb.Indexed() {
			err = fmt.Errorf("wire: indexed heartbeat with a zero session or index")
		}
	case kindAction:
		a := &bx.act
		e.Action = a
		var op string
		var delta int64
		if a.Key, err = d.str(); err != nil {
			break
		}
		if op, err = d.ident(); err != nil {
			break
		}
		a.Op = Op(op)
		if a.Host, err = d.ident(); err != nil {
			break
		}
		if a.Service, err = d.ident(); err != nil {
			break
		}
		if a.InstanceID, err = d.ident(); err != nil {
			break
		}
		if delta, err = d.varint(); err != nil {
			break
		}
		a.Delta = int(delta)
		a.DeadlineUnixMS, err = d.varint()
	case kindAck:
		a := &bx.ack
		e.Ack = a
		var flags byte
		if a.Key, err = d.str(); err != nil {
			break
		}
		if flags, err = d.byteVal(); err != nil {
			break
		}
		a.OK = flags&1 != 0
		a.Duplicate = flags&2 != 0
		a.Error, err = d.str()
	case kindProbe, kindProbeAck:
		p := &bx.probe
		e.Probe = p
		var minute int64
		if p.Host, err = d.ident(); err != nil {
			break
		}
		if minute, err = d.varint(); err != nil {
			break
		}
		p.Minute = int(minute)
	case kindHello:
		h := &bx.hello
		e.Hello = h
		var memMB int64
		if h.Host, err = d.ident(); err != nil {
			break
		}
		if h.PerformanceIndex, err = d.float(); err != nil {
			break
		}
		if memMB, err = d.varint(); err != nil {
			break
		}
		h.MemoryMB = int(memMB)
		h.Addr, err = d.str()
	case kindLease, kindLeaseAck:
		l := &bx.lease
		e.Lease = l
		var minute int64
		if l.Leader, err = d.ident(); err != nil {
			break
		}
		if l.Epoch, err = d.uvarint(); err != nil {
			break
		}
		if minute, err = d.varint(); err != nil {
			break
		}
		l.Minute = int(minute)
	}
	if err != nil {
		return 0, err
	}
	if len(d.b) != 0 {
		return 0, fmt.Errorf("wire: %d trailing bytes after %s payload", len(d.b), e.Type)
	}
	if err := e.Validate(); err != nil {
		return 0, err
	}
	return consumed, nil
}
