package simulator

import (
	"fmt"
	"testing"

	"autoglobe/internal/agent"
	"autoglobe/internal/service"
	"autoglobe/internal/wire"
)

// paperSim builds a full-mobility paper scenario — the declared test
// landscape never executes actions (its decisions are all vetoed), so
// dispatch parity needs a run whose controller genuinely moves, starts
// and stops instances through the dispatcher.
func paperSim(t *testing.T, adjust func(*Config)) *Simulator {
	t.Helper()
	cfg := PaperConfig(service.FullMobility, 1.15)
	cfg.Hours = 24
	if adjust != nil {
		adjust(&cfg)
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestDispatchWorkersByteIdentical is the determinism proof of the
// parallel dispatch plane: the worker count is purely a throughput
// knob. Idempotency keys are minted serially in submission order
// before any worker runs, each host's lane is owned by one worker
// end-to-end, and results come back in submission order — so a
// landscape driven through 1 worker and through 8 must produce
// byte-identical runs, both equal to the in-process simulation.
func TestDispatchWorkersByteIdentical(t *testing.T) {
	base, err := paperSim(t, nil).Run()
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			lb := wire.NewLoopback()
			defer lb.Close()
			lb.SetCodec(wire.CodecBinary)
			sim := paperSim(t, func(c *Config) {
				c.Distributed = &DistributedConfig{
					Transport: lb,
					Dispatch:  agent.DispatchConfig{Workers: workers},
				}
			})
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, base, res, fmt.Sprintf("binary loopback (%d dispatch workers)", workers))
			disp := sim.Plane().Dispatcher()
			if got := disp.Workers(); got != workers {
				t.Errorf("dispatcher runs %d workers, want %d", got, workers)
			}
			if st := disp.Stats(); st.Actions == 0 {
				t.Error("run dispatched no actions — the parity comparison is vacuous")
			}
		})
	}
}

// TestDispatchWorkersHTTPByteIdentical repeats the identity over real
// sockets: parallel per-host fan-out through net/http round trips —
// with their genuinely nondeterministic completion interleaving —
// still yields the byte-identical decision stream.
func TestDispatchWorkersHTTPByteIdentical(t *testing.T) {
	base, err := paperSim(t, nil).Run()
	if err != nil {
		t.Fatal(err)
	}

	tr := wire.NewHTTP()
	defer tr.Close()
	tr.Codec = wire.CodecBinary
	sim := paperSim(t, func(c *Config) {
		c.Distributed = &DistributedConfig{
			Transport: tr,
			Dispatch:  agent.DispatchConfig{Workers: 8},
		}
	})
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, base, res, "http binary (8 dispatch workers)")
	if st := sim.Plane().Dispatcher().Stats(); st.Actions == 0 {
		t.Error("run dispatched no actions — the parity comparison is vacuous")
	}
}
