package simulator

import (
	"testing"

	"autoglobe/internal/cluster"
	"autoglobe/internal/service"
	"autoglobe/internal/workload"
)

// TestPrioritySharesCPU: on an oversubscribed host, the
// increase/reduce-priority actions change how the scarce CPU is split —
// the mechanism behind the controller's priority actions (Table 2).
func TestPrioritySharesCPU(t *testing.T) {
	cl := cluster.MustNew(cluster.Host{
		Name: "h", Category: "t", PerformanceIndex: 1, CPUs: 1,
		ClockMHz: 1000, CacheKB: 512, MemoryMB: 4096, SwapMB: 4096, TempMB: 1024,
	})
	cat := service.MustCatalog(
		&service.Service{Name: "a", Type: service.TypeInteractive, MinInstances: 1,
			MemoryMBPerInstance: 1024, UsersPerUnit: 150, RequestWeight: 1},
		&service.Service{Name: "b", Type: service.TypeInteractive, MinInstances: 1,
			MemoryMBPerInstance: 1024, UsersPerUnit: 150, RequestWeight: 1},
	)
	dep := service.NewDeployment(cl, cat)
	ia, err := dep.Start("a", "h")
	if err != nil {
		t.Fatal(err)
	}
	ib, err := dep.Start("b", "h")
	if err != nil {
		t.Fatal(err)
	}
	// Each demands 90 % of the host: 2× oversubscription.
	ia.Users, ib.Users = 135, 135

	cfg := PaperConfig(service.ConstrainedMobility, 1.0)
	cfg.Hours = 1
	cfg.JitterAmplitude = 0
	cfg.FluctuationPerHour = 0
	cfg.DisableController = true
	gen := workload.MustGenerator(workload.Jitter{},
		workload.Source{Service: "a", Users: 135, Profile: workload.Flat(1)},
		workload.Source{Service: "b", Users: 135, Profile: workload.Flat(1)},
	)
	sim, err := NewCustom(cfg, dep, gen)
	if err != nil {
		t.Fatal(err)
	}

	// Equal priorities: equal shares.
	if err := sim.Step(0); err != nil {
		t.Fatal(err)
	}
	if sim.granted(ia) != sim.granted(ib) {
		t.Fatalf("equal priorities got unequal shares: %g vs %g",
			sim.granted(ia), sim.granted(ib))
	}
	total := sim.granted(ia) + sim.granted(ib)
	if total > 1.0001 {
		t.Fatalf("granted CPU %g exceeds host capacity", total)
	}

	// Raise a's priority: it receives the larger share; capacity is
	// still fully used, nothing is conjured.
	ia.Priority = 1
	if err := sim.Step(1); err != nil {
		t.Fatal(err)
	}
	if !(sim.granted(ia) > sim.granted(ib)) {
		t.Errorf("priority +1 did not increase a's share: %g vs %g",
			sim.granted(ia), sim.granted(ib))
	}
	total = sim.granted(ia) + sim.granted(ib)
	if total > 1.0001 || total < 0.999 {
		t.Errorf("granted CPU %g, want the full host", total)
	}
}
