package simulator

import (
	"fmt"
	"sync"
	"testing"

	"autoglobe/internal/agent"
	"autoglobe/internal/obs"
	"autoglobe/internal/wire"
)

// TestDistributedBinaryLoopbackByteIdentical extends the wire layer's
// correctness claim to the steady heartbeat frame: with the plane
// instrumented, every host's report crosses the loopback as a binary
// frame every minute, named on first contact and as session indices
// from then on, and the run stays byte-identical to the in-process
// simulation. shards=N runs N such planes side by side, each over its
// own loopback and registry: frames and envelopes come from
// process-wide pools, so no plane may see another's bytes.
func TestDistributedBinaryLoopbackByteIdentical(t *testing.T) {
	base, err := declaredSim(t, tuneForActions).Run()
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sims := make([]*Simulator, shards)
			regs := make([]*obs.Registry, shards)
			for i := range sims {
				lb := wire.NewLoopback()
				defer lb.Close()
				regs[i] = obs.NewRegistry()
				sims[i] = declaredSim(t, func(c *Config) {
					tuneForActions(c)
					c.Obs = regs[i]
					c.Distributed = &DistributedConfig{Transport: lb}
				})
			}
			results := make([]*Result, shards)
			errs := make([]error, shards)
			var wg sync.WaitGroup
			for i, sim := range sims {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[i], errs[i] = sim.Run()
				}()
			}
			wg.Wait()
			for i, res := range results {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				label := fmt.Sprintf("binary loopback (plane %d of %d)", i+1, shards)
				assertIdentical(t, base, res, label)
				assertSteadyHeartbeats(t, sims[i], regs[i], res, label)
			}
		})
	}
}

// TestDistributedHTTPBinaryByteIdentical carries the steady heartbeat
// frame over real sockets: binary frames through net/http, the plane
// instrumented. The run stays byte-identical to the in-process
// simulation, every host's heartbeat arrives every minute, and the
// session indices survive the trip without a resync.
func TestDistributedHTTPBinaryByteIdentical(t *testing.T) {
	base, err := declaredSim(t, tuneForActions).Run()
	if err != nil {
		t.Fatal(err)
	}

	tr := wire.NewHTTP()
	defer tr.Close()
	reg := obs.NewRegistry()
	sim := declaredSim(t, func(c *Config) {
		tuneForActions(c)
		c.Obs = reg
		c.Distributed = &DistributedConfig{Transport: tr}
	})
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, base, res, "http binary")
	assertSteadyHeartbeats(t, sim, reg, res, "http binary")
}

// assertSteadyHeartbeats checks a fault-free distributed run's heartbeat
// stream: one beat per host per minute reached the coordinator, each
// host was named once and indexed from then on, and no session had to
// resync.
func assertSteadyHeartbeats(t *testing.T, sim *Simulator, reg *obs.Registry, res *Result, label string) {
	t.Helper()
	wantBeats := res.Minutes * len(res.Hosts)
	if got := sim.Plane().Coordinator().Heartbeats(); got != wantBeats {
		t.Errorf("%s: coordinator ingested %d heartbeats, want %d", label, got, wantBeats)
	}
	snap := reg.Snapshot()
	if named := snap[agent.MetricHeartbeatNamedFrames]; named < float64(len(res.Hosts)) || 2*named > float64(wantBeats) {
		t.Errorf("%s: %v of %d heartbeats named: want every host once, and most minutes indexed", label, named, wantBeats)
	}
	if got := snap[agent.MetricHeartbeatResyncs]; got != 0 {
		t.Errorf("%s: %v resyncs on a fault-free run", label, got)
	}
}
