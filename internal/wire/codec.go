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

// binary payload kind bytes (follow the version byte). The first eleven
// open with [From][To][uvarint Seq][uvarint Epoch]; the last three are
// the steady heartbeat round trip, numbers without names (DESIGN.md
// "The ingest plane"):
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
	kindRuleGet
	kindRulePut
	kindRuleList
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
	case TypeRuleGet:
		return kindRuleGet, true
	case TypeRulePut:
		return kindRulePut, true
	case TypeRuleList:
		return kindRuleList, true
	case TypeLease:
		return kindLease, true
	case TypeLeaseAck:
		return kindLeaseAck, true
	}
	return 0, false
}

func typeOf(k byte) (MsgType, bool) {
	switch k {
	case kindHeartbeat, kindHeartbeatIdx:
		return TypeHeartbeat, true
	case kindAction:
		return TypeAction, true
	case kindAck, kindAckBare, kindAckIndex:
		return TypeAck, true
	case kindProbe:
		return TypeProbe, true
	case kindProbeAck:
		return TypeProbeAck, true
	case kindHello:
		return TypeHello, true
	case kindRuleGet:
		return TypeRuleGet, true
	case kindRulePut:
		return TypeRulePut, true
	case kindRuleList:
		return TypeRuleList, true
	case kindLease:
		return TypeLease, true
	case kindLeaseAck:
		return TypeLeaseAck, true
	}
	return "", false
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

// AcquireFrame returns a pooled byte slice (length 0) for encoding a
// frame into. Return it with ReleaseFrame when the bytes have been
// consumed.
func AcquireFrame() *[]byte {
	return framePool.Get().(*[]byte)
}

// ReleaseFrame returns a frame buffer to the pool.
func ReleaseFrame(b *[]byte) {
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
	// Rule admin messages are cold-path; their payloads ride in the box
	// for uniformity, not for allocation savings (sources and catalog
	// entries allocate fresh strings/slices anyway).
	rget  RuleGet
	rput  RulePut
	rlist RuleList
	lease Lease
}

var envPool = sync.Pool{New: func() any { return new(envBox) }}

func acquireBox() *envBox {
	bx := envPool.Get().(*envBox)
	insts, indices := bx.hb.Instances[:0], bx.ack.Indices[:0]
	*bx = envBox{}
	bx.hb.Instances, bx.ack.Indices = insts, indices
	bx.env.box = bx
	return bx
}

// ReleaseEnvelope returns a pooled envelope (one produced by
// DecodeEnvelope or an Acquire* constructor) to the pool. Envelopes
// built by the plain constructors are untracked and the call is a
// no-op, so transports can release every reply unconditionally.
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
// without Indices keeps the box's empty pooled slice to append to.
func AcquireAckEnvelope(from, to string, ack ActionAck) *Envelope {
	bx := acquireBox()
	bx.env.Version = Version
	bx.env.Type = TypeAck
	bx.env.From = from
	bx.env.To = to
	if ack.Indices == nil {
		ack.Indices = bx.ack.Indices
	}
	bx.ack = ack
	bx.env.Ack = &bx.ack
	return &bx.env
}

// AcquireActionEnvelope frames an action request in a pooled envelope —
// the dispatcher's sending half of the zero-allocation action path (the
// agent's AcquireAckEnvelope is the answering half). The caller releases
// it once the transport call returns: transports never retain a request
// past the call (both encode it into a frame first; the loopback parks a
// held message as that frame), so the box can be recycled immediately.
func AcquireActionEnvelope(from, to string, req ActionRequest) *Envelope {
	bx := acquireBox()
	bx.env.Version = Version
	bx.env.Type = TypeAction
	bx.env.From = from
	bx.env.To = to
	bx.act = req
	bx.env.Action = &bx.act
	return &bx.env
}

// AcquireProbeAckEnvelope frames a probe ack in a pooled envelope.
func AcquireProbeAckEnvelope(from, to string, p Probe) *Envelope {
	bx := acquireBox()
	bx.env.Version = Version
	bx.env.Type = TypeProbeAck
	bx.env.From = from
	bx.env.To = to
	bx.probe = p
	bx.env.Probe = &bx.probe
	return &bx.env
}

// AcquireLeaseAckEnvelope frames a lease-beacon reply in a pooled
// envelope — every standby and agent answers the leader's per-minute
// beacon, so the reply rides the pooled path like probe acks do.
func AcquireLeaseAckEnvelope(from, to string, l Lease) *Envelope {
	bx := acquireBox()
	bx.env.Version = Version
	bx.env.Type = TypeLeaseAck
	bx.env.From = from
	bx.env.To = to
	bx.lease = l
	bx.env.Lease = &bx.lease
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

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

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
		dst = appendUvarint(dst, e.Seq)
		dst = appendUvarint(dst, e.Epoch)
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
		dst = appendUvarint(dst, uint64(a.HostIndex))
		dst = appendUvarint(dst, uint64(len(a.Indices)))
		for _, idx := range a.Indices {
			dst = appendUvarint(dst, uint64(idx))
		}
		if a.NextMinute != 0 {
			dst = appendVarint(dst, int64(a.NextMinute))
		}
	case kindHeartbeat, kindHeartbeatIdx:
		hb := e.Heartbeat
		if kind == kindHeartbeat {
			dst = appendString(dst, hb.Host)
		} else {
			dst = binary.LittleEndian.AppendUint64(dst, hb.Session)
			dst = appendUvarint(dst, uint64(hb.HostIndex))
		}
		dst = appendVarint(dst, int64(hb.Minute))
		dst = appendFloat(dst, hb.CPU)
		dst = appendFloat(dst, hb.Mem)
		dst = appendUvarint(dst, uint64(len(hb.Instances)))
		for i := range hb.Instances {
			s := &hb.Instances[i]
			if kind == kindHeartbeat {
				dst = appendString(dst, s.ID)
				dst = appendString(dst, s.Service)
			} else {
				dst = appendUvarint(dst, uint64(s.Index))
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
		dst = appendVarint(dst, int64(a.Delta))
		dst = appendVarint(dst, a.DeadlineUnixMS)
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
		dst = appendVarint(dst, int64(p.Minute))
	case kindHello:
		h := e.Hello
		dst = appendString(dst, h.Host)
		dst = appendFloat(dst, h.PerformanceIndex)
		dst = appendVarint(dst, int64(h.MemoryMB))
		dst = appendString(dst, h.Addr)
	case kindRuleGet:
		g := e.RuleGet
		dst = appendString(dst, g.Name)
		dst = appendVarint(dst, int64(g.Version))
	case kindRulePut:
		p := e.RulePut
		dst = appendString(dst, p.Name)
		dst = appendVarint(dst, int64(p.Version))
		dst = appendString(dst, p.Hash)
		dst = appendString(dst, p.Source)
		var flags byte
		if p.Activate {
			flags |= 1
		}
		dst = append(dst, flags)
		dst = appendString(dst, p.Error)
	case kindRuleList:
		l := e.RuleList
		dst = appendUvarint(dst, uint64(len(l.Entries)))
		for i := range l.Entries {
			r := &l.Entries[i]
			dst = appendString(dst, r.Name)
			dst = appendVarint(dst, int64(r.Version))
			dst = appendString(dst, r.Hash)
			var flags byte
			if r.Active {
				flags |= 1
			}
			dst = append(dst, flags)
			dst = appendVarint(dst, int64(r.Rules))
		}
		dst = appendString(dst, l.Error)
	case kindLease, kindLeaseAck:
		l := e.Lease
		dst = appendString(dst, l.Leader)
		dst = appendUvarint(dst, l.Epoch)
		dst = appendVarint(dst, int64(l.Minute))
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
	if len(b) < 5 {
		return nil, 0, errShortFrame
	}
	if b[0] != frameMagic {
		return nil, 0, fmt.Errorf("wire: bad frame magic 0x%02X", b[0])
	}
	n := binary.LittleEndian.Uint32(b[1:5])
	if n > maxFrame {
		return nil, 0, fmt.Errorf("wire: frame length %d exceeds %d-byte cap", n, maxFrame)
	}
	if uint64(len(b)-5) < uint64(n) {
		return nil, 0, errShortFrame
	}
	consumed := 5 + int(n)
	d := decoder{b: b[5:consumed], in: in}

	if len(d.b) < 2 {
		return nil, 0, errShortFrame
	}
	version, kind := d.b[0], d.b[1]
	d.b = d.b[2:]
	if int(version) != Version {
		return nil, 0, fmt.Errorf("wire: protocol version %d, want %d", version, Version)
	}
	t, ok := typeOf(kind)
	if !ok {
		return nil, 0, fmt.Errorf("wire: unknown binary kind %d", kind)
	}

	bx := acquireBox()
	e := &bx.env
	e.Version = int(version)
	e.Type = t
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
		ReleaseEnvelope(e)
		return nil, 0, err
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
	case kindRuleGet:
		g := &bx.rget
		e.RuleGet = g
		var version int64
		if g.Name, err = d.ident(); err != nil {
			break
		}
		if version, err = d.varint(); err != nil {
			break
		}
		g.Version = int(version)
	case kindRulePut:
		p := &bx.rput
		e.RulePut = p
		var version int64
		var flags byte
		if p.Name, err = d.ident(); err != nil {
			break
		}
		if version, err = d.varint(); err != nil {
			break
		}
		p.Version = int(version)
		if p.Hash, err = d.str(); err != nil {
			break
		}
		if p.Source, err = d.str(); err != nil {
			break
		}
		if flags, err = d.byteVal(); err != nil {
			break
		}
		p.Activate = flags&1 != 0
		p.Error, err = d.str()
	case kindRuleList:
		l := &bx.rlist
		e.RuleList = l
		var count uint64
		if count, err = d.uvarint(); err != nil {
			break
		}
		if count > uint64(len(d.b)) { // each entry needs ≥ 1 byte
			err = errShortFrame
			break
		}
		for i := uint64(0); i < count; i++ {
			var r RuleInfo
			var version, rules int64
			var flags byte
			if r.Name, err = d.ident(); err != nil {
				break
			}
			if version, err = d.varint(); err != nil {
				break
			}
			r.Version = int(version)
			if r.Hash, err = d.str(); err != nil {
				break
			}
			if flags, err = d.byteVal(); err != nil {
				break
			}
			r.Active = flags&1 != 0
			if rules, err = d.varint(); err != nil {
				break
			}
			r.Rules = int(rules)
			l.Entries = append(l.Entries, r)
		}
		if err != nil {
			break
		}
		l.Error, err = d.str()
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
		ReleaseEnvelope(e)
		return nil, 0, err
	}
	if len(d.b) != 0 {
		ReleaseEnvelope(e)
		return nil, 0, fmt.Errorf("wire: %d trailing bytes after %s payload", len(d.b), t)
	}
	if err := e.Validate(); err != nil {
		ReleaseEnvelope(e)
		return nil, 0, err
	}
	return e, consumed, nil
}
