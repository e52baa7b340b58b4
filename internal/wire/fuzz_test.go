package wire

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzSession is the session of the corpus's indexed frames.
const fuzzSession = 0x5EED0123456789AB

// corpusEnvelopes is one valid envelope per binary kind and flavour, by
// corpus file name — the happy half of the fuzz seed corpus.
func corpusEnvelopes() map[string]*Envelope {
	return map[string]*Envelope{
		"seed-heartbeat": {Version: Version, Type: TypeHeartbeat, From: "b1", To: "coordinator", Seq: 7,
			Heartbeat: &Heartbeat{Host: "b1", Minute: 42, CPU: 0.5, Mem: 0.25,
				Instances: []InstanceSample{
					{ID: "app-1", Service: "app", Load: 0.3},
					{ID: "app-2", Service: "app", Load: 0.2},
				}}},
		// The same report as numbers: the names stay behind.
		"seed-heartbeat-indexed": {Version: Version, Type: TypeHeartbeat, From: "b1", To: "coordinator", Seq: 7,
			Heartbeat: &Heartbeat{Host: "b1", Minute: 42, CPU: 0.5, Mem: 0.25, Session: fuzzSession, HostIndex: 3,
				Instances: []InstanceSample{
					{ID: "app-1", Service: "app", Load: 0.3, Index: 1},
					{ID: "app-2", Service: "app", Load: 0.2, Index: 300},
				}}},
		"seed-action": {Version: Version, Type: TypeAction, From: "coordinator", To: "b1", Seq: 8, Epoch: 2,
			Action: &ActionRequest{Key: "coordinator-e2-000001", Op: OpStart,
				Host: "b1", Service: "app", InstanceID: "app-3", Delta: 1,
				DeadlineUnixMS: 1700000000000}},
		"seed-ack": {Version: Version, Type: TypeAck, From: "b1", To: "coordinator", Seq: 9,
			Ack: &ActionAck{Key: "coordinator-e2-000001", OK: true, Duplicate: true}},
		"seed-nack": {Version: Version, Type: TypeAck, From: "b1", To: "coordinator", Seq: 10,
			Ack: &ActionAck{Key: "coordinator-e2-000002", Error: "unknown instance"}},
		"seed-ack-bare": {Version: Version, Type: TypeAck, Ack: &ActionAck{OK: true}},
		"seed-ack-index": {Version: Version, Type: TypeAck,
			Ack: &ActionAck{OK: true, Session: fuzzSession, HostIndex: 3, Indices: []uint32{1, 300}}},
		"seed-ack-resync": {Version: Version, Type: TypeAck, Ack: &ActionAck{Resync: true}},
		"seed-probe": {Version: Version, Type: TypeProbe, From: "coordinator", To: "b1",
			Probe: &Probe{Host: "b1", Minute: 42}},
		"seed-probe-ack": {Version: Version, Type: TypeProbeAck, From: "b1", To: "coordinator",
			Probe: &Probe{Host: "b1", Minute: 42}},
		"seed-hello": {Version: Version, Type: TypeHello, From: "b9", To: "coordinator",
			Hello: &Hello{Host: "b9", PerformanceIndex: 1.25, MemoryMB: 4096,
				Addr: "http://127.0.0.1:8147"}},
		"seed-rule-get": {Version: Version, Type: TypeRuleGet, From: "admin", To: "coordinator", Seq: 11,
			RuleGet: &RuleGet{Name: "serviceOverloaded", Version: 2}},
		"seed-rule-put": {Version: Version, Type: TypeRulePut, From: "admin", To: "coordinator", Seq: 12,
			RulePut: &RulePut{Name: "select/placement", Version: 3,
				Hash:     "ab12cd34",
				Source:   "IF cpuLoad IS high THEN scaleOut IS applicable\n",
				Activate: true}},
		"seed-rule-put-err": {Version: Version, Type: TypeRulePut, From: "coordinator", To: "admin", Seq: 13,
			RulePut: &RulePut{Name: "serverIdle", Error: "fuzzy: parse error at line 1"}},
		"seed-rule-list": {Version: Version, Type: TypeRuleList, From: "admin", To: "coordinator",
			RuleList: &RuleList{}},
		"seed-rule-list-reply": {Version: Version, Type: TypeRuleList, From: "coordinator", To: "admin",
			RuleList: &RuleList{Entries: []RuleInfo{
				{Name: "select/placement", Version: 3, Hash: "ab12cd34", Active: true, Rules: 5},
				{Name: "serviceOverloaded", Version: 1, Hash: "99ff00aa", Rules: 2},
			}}},
		"seed-lease": {Version: Version, Type: TypeLease, From: "coordinator", To: "b1", Seq: 14, Epoch: 3,
			Lease: &Lease{Leader: "coordinator", Epoch: 3, Minute: 615}},
		"seed-lease-ack": {Version: Version, Type: TypeLeaseAck, From: "b1", To: "coordinator", Seq: 15,
			Lease: &Lease{Leader: "standby-1", Epoch: 4, Minute: 616}},
	}
}

// rawFrame frames a payload the encoder would never produce.
func rawFrame(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32([]byte{frameMagic}, uint32(len(payload)))
	return append(b, payload...)
}

// rawIndexed hand-frames an indexed heartbeat claiming count samples and
// carrying those given.
func rawIndexed(session, host, count uint64, insts ...uint64) []byte {
	p := []byte{Version, kindHeartbeatIdx, 7, 0}
	p = binary.LittleEndian.AppendUint64(p, session)
	p = binary.AppendUvarint(p, host)
	p = appendFloat(appendFloat(binary.AppendVarint(p, 42), 0.5), 0.25)
	p = binary.AppendUvarint(p, count)
	for _, idx := range insts {
		p = appendFloat(binary.AppendUvarint(p, idx), 0.3)
	}
	return rawFrame(p)
}

// rawIndexAck hand-frames an index ack the same way.
func rawIndexAck(host, count uint64, indices ...uint64) []byte {
	p := binary.LittleEndian.AppendUint64([]byte{Version, kindAckIndex, 1}, fuzzSession)
	p = binary.AppendUvarint(binary.AppendUvarint(p, host), count)
	for _, idx := range indices {
		p = binary.AppendUvarint(p, idx)
	}
	return rawFrame(p)
}

// fuzzSeed is one file of the seed corpus.
type fuzzSeed struct {
	frame  []byte
	reject bool // the decoder must refuse it
}

// fuzzSeeds is the whole seed corpus by file name: every valid envelope
// above, framed, and the handcrafted malformed mutations — of the frame
// (truncation, lying length, bad magic, unknown kind, trailing bytes)
// and of the three index kinds (session 0, index 0, an index past 32
// bits, a count larger than the bytes left, trailing bytes). It feeds
// f.Add and, through TestFuzzCorpus, testdata/fuzz.
func fuzzSeeds(tb testing.TB) map[string]fuzzSeed {
	seeds := make(map[string]fuzzSeed)
	for name, env := range corpusEnvelopes() {
		b, err := AppendEnvelope(nil, env)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		seeds[name] = fuzzSeed{frame: b}
	}
	hb := seeds["seed-heartbeat"].frame
	mutate := func(mut func(b []byte)) []byte {
		c := append([]byte(nil), hb...)
		mut(c)
		return c
	}
	for name, b := range map[string][]byte{
		"seed-empty":             nil,
		"seed-magic-only":        {frameMagic},
		"seed-truncated-payload": hb[:len(hb)-3],
		"seed-truncated-header":  hb[:7],
		"seed-bad-magic":         mutate(func(b []byte) { b[0] = 0x7B }), // '{': JSON sniffing territory
		"seed-lying-length":      mutate(func(b []byte) { b[1], b[2], b[3], b[4] = 0xFF, 0xFF, 0xFF, 0x7F }),
		"seed-trailing-payload":  mutate(func(b []byte) { b[1] -= 4 }), // length smaller than payload
		"seed-unknown-kind":      mutate(func(b []byte) { b[6] = 0xEE }),
		"seed-garbage":           []byte("not a frame at all"),

		"seed-indexed-session-zero":  rawIndexed(0, 3, 2, 1, 300),
		"seed-indexed-host-zero":     rawIndexed(fuzzSession, 0, 2, 1, 300),
		"seed-indexed-instance-zero": rawIndexed(fuzzSession, 3, 2, 1, 0),
		"seed-indexed-host-33-bits":  rawIndexed(fuzzSession, 1<<32, 2, 1, 300),
		"seed-indexed-index-33-bits": rawIndexed(fuzzSession, 3, 2, 1, 1<<32),
		"seed-indexed-lying-count":   rawIndexed(fuzzSession, 3, 200, 1, 300),
		"seed-indexed-trailing":      rawIndexed(fuzzSession, 3, 1, 1, 300),
		"seed-ack-bare-trailing":     rawFrame([]byte{Version, kindAckBare, 1}),
		"seed-ack-index-33-bits":     rawIndexAck(3, 2, 1, 1<<32),
		"seed-ack-index-lying-count": rawIndexAck(3, 200, 1, 300),
		"seed-ack-index-trailing":    rawIndexAck(3, 1, 1, 300),
	} {
		seeds[name] = fuzzSeed{frame: b, reject: true}
	}
	// Trailing bytes AFTER a complete frame are fine for the streaming
	// decoder — it reports how much it consumed — but the transports
	// reject them (a request body must be exactly one frame).
	seeds["seed-trailing-garbage"] = fuzzSeed{frame: append(append([]byte(nil), hb...), 0xFF, 0xFF, 0xFF)}
	return seeds
}

// renderEnvelope flattens an envelope into a comparable string. It
// must not go through encoding/json (fuzzed frames legally carry NaN
// and ±Inf floats, which JSON cannot represent) and must not compare
// pointers (decodes are pooled). %v prints NaN/Inf fine, and two
// decodes of the same frame render identically.
func renderEnvelope(e *Envelope) string {
	s := fmt.Sprintf("v%d|%s|%s>%s|seq%d|ep%d", e.Version, e.Type, e.From, e.To, e.Seq, e.Epoch)
	switch {
	case e.Heartbeat != nil:
		s += fmt.Sprintf("|%+v", *e.Heartbeat)
	case e.Action != nil:
		s += fmt.Sprintf("|%+v", *e.Action)
	case e.Ack != nil:
		s += fmt.Sprintf("|%+v", *e.Ack)
	case e.Probe != nil:
		s += fmt.Sprintf("|%+v", *e.Probe)
	case e.Hello != nil:
		s += fmt.Sprintf("|%+v", *e.Hello)
	case e.RuleGet != nil:
		s += fmt.Sprintf("|%+v", *e.RuleGet)
	case e.RulePut != nil:
		s += fmt.Sprintf("|%+v", *e.RulePut)
	case e.RuleList != nil:
		s += fmt.Sprintf("|%+v", *e.RuleList)
	case e.Lease != nil:
		s += fmt.Sprintf("|%+v", *e.Lease)
	}
	return s
}

// FuzzEnvelopeDecode is the native fuzz target for the binary wire
// codec: whatever bytes arrive on a socket — truncated frames, length
// prefixes that lie, unknown kinds, trailing garbage — the decoder must
// never panic, must only ever return validated envelopes, and must be a
// true inverse of the encoder (decode → encode → decode is identity).
// Run with
//
//	go test -fuzz FuzzEnvelopeDecode ./internal/wire
//
// The seed corpus (f.Add below plus testdata/fuzz/FuzzEnvelopeDecode,
// regenerable with `go run gen_corpus.go`) doubles as a regression
// suite: a plain `go test` replays every seed.
func FuzzEnvelopeDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed.frame)
	}

	in := NewInterner()
	f.Fuzz(func(t *testing.T, b []byte) {
		env, n, err := DecodeEnvelope(b, in)
		if err != nil {
			if env != nil {
				t.Fatalf("error %v returned an envelope", err)
			}
			return
		}
		if n < 5 || n > len(b) {
			t.Fatalf("consumed %d bytes of %d", n, len(b))
		}
		if verr := env.Validate(); verr != nil {
			t.Fatalf("decoder returned an invalid envelope: %v", verr)
		}
		want := renderEnvelope(env)

		// Round trip: whatever decodes must re-encode into a frame that
		// decodes back to the identical envelope.
		re, rerr := AppendEnvelope(nil, env)
		ReleaseEnvelope(env)
		if rerr != nil {
			t.Fatalf("decoded envelope does not re-encode: %v", rerr)
		}
		env2, n2, err2 := DecodeEnvelope(re, in)
		if err2 != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err2)
		}
		if n2 != len(re) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(re))
		}
		got := renderEnvelope(env2)
		ReleaseEnvelope(env2)
		if want != got {
			t.Fatalf("round trip diverges:\n got %s\nwant %s", got, want)
		}
	})
}

// TestFuzzSeedsDecode pins the intent of the corpus: each handcrafted
// mutation must be rejected with an error, never a panic, and every
// other seed must decode — consuming exactly its one frame.
func TestFuzzSeedsDecode(t *testing.T) {
	in := NewInterner()
	hb := fuzzSeeds(t)["seed-heartbeat"].frame
	for name, seed := range fuzzSeeds(t) {
		env, n, err := DecodeEnvelope(seed.frame, in)
		switch {
		case seed.reject && err == nil:
			t.Errorf("%s: decoded successfully, want error", name)
		case !seed.reject && err != nil:
			t.Errorf("%s: %v", name, err)
		case name == "seed-trailing-garbage" && n != len(hb):
			t.Errorf("%s: consumed %d bytes, want %d", name, n, len(hb))
		case !seed.reject && name != "seed-trailing-garbage" && n != len(seed.frame):
			t.Errorf("%s: consumed %d of %d bytes", name, n, len(seed.frame))
		}
		ReleaseEnvelope(env)
	}
}

// TestIndexedFrameCarriesNoName: the indexed heartbeat and its acks
// leave every string behind, and decode to exactly the numbers.
func TestIndexedFrameCarriesNoName(t *testing.T) {
	seeds := fuzzSeeds(t)
	for name, want := range map[string]int{"seed-heartbeat-indexed": 5 + 2 + 2 + 8 + 1 + 1 + 16 + 1 + 9 + 10, "seed-ack-bare": 5 + 2, "seed-ack-index": 5 + 2 + 1 + 8 + 1 + 1 + 1 + 2} {
		if got := len(seeds[name].frame); got != want {
			t.Errorf("%s is %d bytes, want %d", name, got, want)
		}
	}
	env, _, err := DecodeEnvelope(seeds["seed-heartbeat-indexed"].frame, NewInterner())
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseEnvelope(env)
	hb := env.Heartbeat
	if env.From != "" || env.To != "" || hb.Host != "" || hb.Instances[0].ID != "" || hb.Instances[1].Service != "" {
		t.Fatalf("an indexed frame decoded to names: %+v", *hb)
	}
	if env.Seq != 7 || hb.Session != fuzzSession || hb.HostIndex != 3 || hb.Minute != 42 || hb.CPU != 0.5 || hb.Mem != 0.25 ||
		len(hb.Instances) != 2 || hb.Instances[0] != (InstanceSample{Load: 0.3, Index: 1}) || hb.Instances[1] != (InstanceSample{Load: 0.2, Index: 300}) {
		t.Fatalf("indexed frame decoded to %+v", *hb)
	}
}

// TestFuzzCorpus keeps testdata/fuzz/FuzzEnvelopeDecode equal to
// fuzzSeeds, file for file, so the checked-in corpus cannot drift from
// the codec (a format change that forgets `go run gen_corpus.go` fails
// here). With WIRE_GEN_CORPUS set — which is all gen_corpus.go does — it
// rewrites the directory instead.
func TestFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzEnvelopeDecode")
	seeds := fuzzSeeds(t)
	write := os.Getenv("WIRE_GEN_CORPUS") != ""
	if write {
		old, _ := filepath.Glob(filepath.Join(dir, "seed-*"))
		for _, path := range old {
			os.Remove(path) //nolint:errcheck // rewritten or stale
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, seed := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed.frame)
		path := filepath.Join(dir, name)
		if write {
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != body {
			t.Errorf("%s is stale or missing (%v): run `go run gen_corpus.go` in internal/wire", path, err)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "seed-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if _, ok := seeds[filepath.Base(path)]; !ok {
			t.Errorf("%s is not a seed of fuzzSeeds any more", strings.TrimPrefix(path, dir))
		}
	}
}
