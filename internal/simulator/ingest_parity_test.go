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

// TestDistributedByReferenceShardedByteIdentical crosses the other two
// axes: by-reference delivery (the loopback's zero Codec, no encoding)
// with a shard count other than the fixed one. Delivery and shard count
// are independent; neither may affect the decision stream.
func TestDistributedByReferenceShardedByteIdentical(t *testing.T) {
	base, err := declaredSim(t, tuneForActions).Run()
	if err != nil {
		t.Fatal(err)
	}

	lb := wire.NewLoopback()
	defer lb.Close() // no SetCodec: envelopes pass by pointer
	sim := declaredSim(t, func(c *Config) {
		tuneForActions(c)
		c.Distributed = &DistributedConfig{Transport: lb}
	})
	sim.Plane().Coordinator().SetIngestShardsForTest(4)
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, base, res, "by-reference loopback (4 shards)")
}

// TestDistributedHTTPBinaryByteIdentical crosses real sockets with the
// sharded ingest path: binary frames through net/http, heartbeat ingest
// spread over 16 shards. The run stays byte-identical to the in-process
// simulation, and every host's heartbeat arrives every minute.
func TestDistributedHTTPBinaryByteIdentical(t *testing.T) {
	base, err := declaredSim(t, tuneForActions).Run()
	if err != nil {
		t.Fatal(err)
	}

	tr := wire.NewHTTP()
	defer tr.Close()
	sim := declaredSim(t, func(c *Config) {
		tuneForActions(c)
		c.Distributed = &DistributedConfig{Transport: tr}
	})
	sim.Plane().Coordinator().SetIngestShardsForTest(16)
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, base, res, "http binary (16 shards)")
	wantBeats := res.Minutes * len(res.Hosts)
	if got := sim.Plane().Coordinator().Heartbeats(); got != wantBeats {
		t.Errorf("coordinator ingested %d heartbeats, want %d", got, wantBeats)
	}
}
