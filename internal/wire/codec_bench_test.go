package wire

import (
	"encoding/json"
	"fmt"
	"testing"
)

// benchHeartbeatEnvelope is a representative heartbeat: one paper host
// carrying four instance samples.
func benchHeartbeatEnvelope() *Envelope {
	return &Envelope{
		Version: Version, Type: TypeHeartbeat, From: "blade07", To: "coordinator",
		Seq: 420, Heartbeat: &Heartbeat{
			Host: "blade07", Minute: 1234, CPU: 0.6172839, Mem: 0.25,
			Instances: []InstanceSample{
				{ID: "fi-app-1", Service: "fi-app", Load: 0.31},
				{ID: "hr-app-2", Service: "hr-app", Load: 0.12},
				{ID: "les-app-3", Service: "les-app", Load: 0.09},
				{ID: "bw-app-4", Service: "bw-app", Load: 0.11},
			},
		},
	}
}

// BenchmarkEnvelopeCodec compares a full encode+decode round trip of
// the heartbeat envelope — the control plane's hottest message — in
// both wire codecs, the binary one in both of its frame forms. The
// binary path uses the pooled frame buffers and
// envelope carriers plus the string interner, which is exactly what
// the loopback and HTTP transports use in steady state.
func BenchmarkEnvelopeCodec(b *testing.B) {
	env := benchHeartbeatEnvelope()

	b.Run("binary", func(b *testing.B) {
		in := NewInterner()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frame := AcquireFrame()
			buf, err := AppendEnvelope((*frame)[:0], env)
			if err != nil {
				b.Fatal(err)
			}
			*frame = buf
			dec, _, err := DecodeEnvelope(buf, in)
			if err != nil {
				b.Fatal(err)
			}
			ReleaseEnvelope(dec)
			ReleaseFrame(frame)
		}
	})

	// The same report once the coordinator has issued its numbers: the
	// steady frame, beside the named one above.
	b.Run("binary-indexed", func(b *testing.B) {
		indexed := CloneEnvelope(env)
		indexed.Heartbeat.Session, indexed.Heartbeat.HostIndex = 0x5EED0123456789AB, 7
		for i := range indexed.Heartbeat.Instances {
			indexed.Heartbeat.Instances[i].Index = uint32(100*i + 1)
		}
		in := NewInterner()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frame := AcquireFrame()
			buf, err := AppendEnvelope((*frame)[:0], indexed)
			if err != nil {
				b.Fatal(err)
			}
			*frame = buf
			dec, _, err := DecodeEnvelope(buf, in)
			if err != nil {
				b.Fatal(err)
			}
			ReleaseEnvelope(dec)
			ReleaseFrame(frame)
		}
	})

	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, err := json.Marshal(env)
			if err != nil {
				b.Fatal(err)
			}
			var dec Envelope
			if err := json.Unmarshal(buf, &dec); err != nil {
				b.Fatal(err)
			}
			if err := dec.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEnvelopeEncode isolates the encode halves, the agent-side
// cost of putting one heartbeat on the wire.
func BenchmarkEnvelopeEncode(b *testing.B) {
	env := benchHeartbeatEnvelope()
	b.Run("binary", func(b *testing.B) {
		frame := AcquireFrame()
		defer ReleaseFrame(frame)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, err := AppendEnvelope((*frame)[:0], env)
			if err != nil {
				b.Fatal(err)
			}
			*frame = buf
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(env); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestInternerOverflowKeepsVocabulary pins non-destructive overflow: a
// landscape whose steady vocabulary fills the table, then a stream of
// identifiers beyond it, must leave the established vocabulary
// interned — re-interning it allocates nothing — and the table at its
// bound.
func TestInternerOverflowKeepsVocabulary(t *testing.T) {
	in := NewInterner()
	key := func(i int) []byte { return []byte(fmt.Sprintf("c%05d-Blade", i)) }
	vocab := make([][]byte, maxInternerEntries)
	for i := range vocab {
		vocab[i] = key(i)
		in.Intern(vocab[i])
	}
	for i := 0; i < 1000; i++ {
		if got := in.Intern(key(maxInternerEntries + i)); got != string(key(maxInternerEntries+i)) {
			t.Fatalf("overflow identifier came back as %q", got)
		}
	}
	if len(in.m) != maxInternerEntries {
		t.Fatalf("table holds %d entries, want the bound %d", len(in.m), maxInternerEntries)
	}
	if allocs := testing.AllocsPerRun(3, func() {
		for _, b := range vocab {
			in.Intern(b)
		}
	}); allocs != 0 {
		t.Fatalf("re-interning the established vocabulary: %v allocs, want 0", allocs)
	}
}
