package simulator

import (
	"fmt"
	"testing"

	"autoglobe/internal/wire"
)

// TestDistributedBinaryLoopbackByteIdentical extends the wire layer's
// correctness claim to the binary codec and the sharded ingest path:
// framing every envelope through the length-prefixed binary format and
// spreading heartbeat ingest over 1 or 16 shards changes nothing — the
// run stays byte-identical to the in-process simulation. The shard
// count is irrelevant by construction (the minute-boundary merge fixes
// the observation order), and this test is the proof that the fixed
// count of a running coordinator is not load-bearing.
func TestDistributedBinaryLoopbackByteIdentical(t *testing.T) {
	base, err := declaredSim(t, tuneForActions).Run()
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			lb := wire.NewLoopback()
			defer lb.Close()
			lb.SetCodec(wire.CodecBinary)
			sim := declaredSim(t, func(c *Config) {
				tuneForActions(c)
				c.Distributed = &DistributedConfig{Transport: lb}
			})
			sim.Plane().Coordinator().SetIngestShardsForTest(shards)
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, base, res, fmt.Sprintf("binary loopback (%d shards)", shards))
			wantBeats := res.Minutes * len(res.Hosts)
			if got := sim.Plane().Coordinator().Heartbeats(); got != wantBeats {
				t.Errorf("coordinator ingested %d heartbeats, want %d", got, wantBeats)
			}
		})
	}
}

// TestDistributedJSONShardedByteIdentical crosses the other two axes:
// the JSON codec with a shard count other than the fixed one. Codec and
// shard count are independent; neither may affect the decision stream.
func TestDistributedJSONShardedByteIdentical(t *testing.T) {
	base, err := declaredSim(t, tuneForActions).Run()
	if err != nil {
		t.Fatal(err)
	}

	lb := wire.NewLoopback()
	defer lb.Close() // JSON is the loopback default; no SetCodec
	sim := declaredSim(t, func(c *Config) {
		tuneForActions(c)
		c.Distributed = &DistributedConfig{Transport: lb}
	})
	sim.Plane().Coordinator().SetIngestShardsForTest(4)
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, base, res, "json loopback (4 shards)")
}

// TestDistributedHTTPBinaryByteIdentical repeats the identity over real
// sockets with the binary codec: the length-prefixed frames carry IEEE
// float64 bits verbatim, so the run survives the trip through net/http
// bit-exactly — no decimal round-trip is even involved.
func TestDistributedHTTPBinaryByteIdentical(t *testing.T) {
	base, err := declaredSim(t, tuneForActions).Run()
	if err != nil {
		t.Fatal(err)
	}

	tr := wire.NewHTTP()
	defer tr.Close()
	tr.Codec = wire.CodecBinary
	res, err := declaredSim(t, func(c *Config) {
		tuneForActions(c)
		c.Distributed = &DistributedConfig{Transport: tr}
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, base, res, "http binary")
}
