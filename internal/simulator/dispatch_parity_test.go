package simulator

import (
	"fmt"
	"sync"
	"testing"

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

// dispatchingDaysIdentical runs one full-mobility paper day over each
// transport, all of them side by side, and proves every run
// byte-identical to the in-process one — and not vacuously so: the
// controller's actions went through the wire.
func dispatchingDaysIdentical(t *testing.T, label string, trs ...wire.Transport) {
	t.Helper()
	base, err := paperSim(t, nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	sims := make([]*Simulator, len(trs))
	for i, tr := range trs {
		sims[i] = paperSim(t, func(c *Config) { c.Distributed = &DistributedConfig{Transport: tr} })
	}
	results, errs := make([]*Result, len(sims)), make([]error, len(sims))
	var wg sync.WaitGroup
	for i, sim := range sims {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = sim.Run()
		}()
	}
	wg.Wait()
	for i, sim := range sims {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		res := results[i]
		assertIdentical(t, base, res, fmt.Sprintf("%s (day %d of %d)", label, i+1, len(sims)))
		if st := sim.Plane().Dispatcher().Stats(); st.Actions == 0 {
			t.Error("run dispatched no actions — the parity comparison is vacuous")
		}
		if got, want := sim.Plane().Coordinator().Heartbeats(), res.Minutes*len(res.Hosts); got != want {
			t.Errorf("coordinator ingested %d heartbeats, want %d", got, want)
		}
	}
}

// TestDispatchWorkersByteIdentical is the determinism proof of the
// dispatch plane over the binary loopback: every start, stop and move
// of a paper day is carried to its agent, one action at a time, and the
// run equals the in-process simulation byte for byte. The dispatch path
// itself is serial; workers is the number of such days run side by
// side in one process, as the experiments sweep's worker pool runs
// simulations — their planes share the codec's frame and envelope pools,
// and no day may bleed into another.
func TestDispatchWorkersByteIdentical(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			trs := make([]wire.Transport, workers)
			for i := range trs {
				lb := wire.NewLoopback()
				defer lb.Close()
				trs[i] = lb
			}
			dispatchingDaysIdentical(t, "binary loopback", trs...)
		})
	}
}

// TestDispatchingDayHTTPByteIdentical repeats the identity over real
// sockets: net/http round trips still yield the byte-identical decision
// stream.
func TestDispatchingDayHTTPByteIdentical(t *testing.T) {
	tr := wire.NewHTTP()
	defer tr.Close()
	dispatchingDaysIdentical(t, "http", tr)
}
