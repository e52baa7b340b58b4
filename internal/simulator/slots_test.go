package simulator

import (
	"testing"

	"autoglobe/internal/cluster"
	"autoglobe/internal/service"
	"autoglobe/internal/workload"
)

// slotHosts are the fuzzed landscape's possible hosts: the first three
// start pooled, the last is a spare blade that pool changes bring in.
var slotHosts = []cluster.Host{
	{Name: "h0", Category: "t", PerformanceIndex: 1, CPUs: 1, ClockMHz: 1000, CacheKB: 512, MemoryMB: 4096, SwapMB: 1, TempMB: 1},
	{Name: "h1", Category: "t", PerformanceIndex: 2, CPUs: 2, ClockMHz: 1000, CacheKB: 512, MemoryMB: 4096, SwapMB: 1, TempMB: 1},
	{Name: "h2", Category: "t", PerformanceIndex: 9, CPUs: 4, ClockMHz: 1000, CacheKB: 512, MemoryMB: 8192, SwapMB: 1, TempMB: 1},
	{Name: "h3", Category: "t", PerformanceIndex: 1, CPUs: 1, ClockMHz: 1000, CacheKB: 512, MemoryMB: 2048, SwapMB: 1, TempMB: 1},
}

// slotSim builds a small landscape — two application services, a batch
// service, a database and a central instance of one subsystem on three
// hosts — with the controller on.
func slotSim(t *testing.T) *Simulator {
	t.Helper()
	all := []service.Action{service.ActionScaleIn, service.ActionScaleOut, service.ActionMove,
		service.ActionScaleUp, service.ActionScaleDown, service.ActionIncreasePriority}
	allowed := make(map[service.Action]bool)
	for _, a := range all {
		allowed[a] = true
	}
	app := func(name string, typ service.Type) *service.Service {
		return &service.Service{Name: name, Type: typ, Subsystem: "ERP", MinInstances: 1,
			Allowed: allowed, MemoryMBPerInstance: 512, BaseLoad: 0.05, UsersPerUnit: 150, RequestWeight: 1}
	}
	cat := service.MustCatalog(
		app("FI", service.TypeInteractive),
		app("LES", service.TypeInteractive),
		app("BW", service.TypeBatch),
		&service.Service{Name: "DB", Type: service.TypeDatabase, Subsystem: "ERP", MinInstances: 1,
			MemoryMBPerInstance: 1024, BaseLoad: 0.1, UsersPerUnit: 1, RequestWeight: 1},
		&service.Service{Name: "CI", Type: service.TypeCentralInstance, Subsystem: "ERP", MinInstances: 1,
			MemoryMBPerInstance: 256, BaseLoad: 0.02, UsersPerUnit: 1, RequestWeight: 1},
	)
	dep := service.NewDeployment(cluster.MustNew(slotHosts[:3]...), cat)
	for _, p := range []struct {
		svc, host string
		users     float64
	}{{"FI", "h0", 120}, {"FI", "h1", 150}, {"LES", "h1", 200}, {"BW", "h0", 40}, {"DB", "h2", 0}, {"CI", "h2", 0}} {
		inst, err := dep.Start(p.svc, p.host)
		if err != nil {
			t.Fatal(err)
		}
		inst.Users = p.users
	}
	gen := workload.MustGenerator(workload.Jitter{Seed: 3, Amplitude: 0.03},
		workload.Source{Service: "FI", Users: 270, Profile: workload.Interactive(0.74)},
		workload.Source{Service: "LES", Users: 200, Profile: workload.Interactive(0.74).Shift("les", 20),
			Bursts: []workload.Burst{{Start: 5, Length: 7, Factor: 1.5}}},
		workload.Source{Service: "BW", Users: 40, Profile: workload.BatchNight(0.74)},
	)
	cfg := PaperConfig(service.FullMobility, 1)
	cfg.Hours = 1
	cfg.Monitor.OverloadWatch, cfg.Monitor.IdleWatch = 2, 3
	sim, err := NewCustom(cfg, dep, gen)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// checkSlots asserts that the slots agree with the landscape read
// afresh: the host slots are the pool in cluster order, a fresh host's
// cached load equals a sum over InstancesOn, and — once a minute has
// been stepped — each service slot's fraction is the generator's.
func checkSlots(t *testing.T, s *Simulator, stepped int) {
	t.Helper()
	names := s.dep.Cluster().Names()
	if len(names) != len(s.hosts) {
		t.Fatalf("%d host slots for pool %v", len(s.hosts), names)
	}
	for i, h := range s.hosts {
		if h.name != names[i] {
			t.Fatalf("host slot %d is %q, the pool's is %q", i, h.name, names[i])
		}
		if !h.fresh {
			continue
		}
		var units float64
		memUsed := 0
		for _, inst := range s.dep.InstancesOn(h.name) {
			units += s.demandOf(inst)
			svc, _ := s.dep.Catalog().Get(inst.Service)
			memUsed += svc.MemoryMBPerInstance
		}
		hc, _ := s.dep.Cluster().Host(h.name)
		cpu, mem := units/hc.PerformanceIndex, float64(memUsed)/float64(hc.MemoryMB)
		if h.cpu != cpu || h.mem != mem {
			t.Fatalf("host %s: cached load (%g, %g), a fresh sum gives (%g, %g)", h.name, h.cpu, h.mem, cpu, mem)
		}
	}
	if stepped < 0 {
		return
	}
	for i := range s.svcs {
		sv := &s.svcs[i]
		if want := s.gen.ActiveFraction(sv.svc.Name, stepped); sv.frac != want {
			t.Fatalf("service %s: slot fraction %g at minute %d, the generator's %g", sv.svc.Name, sv.frac, stepped, want)
		}
	}
}

// FuzzSimulatorSlots drives the small landscape through random starts,
// stops, moves, crashes and pool changes between minutes, and checks
// the slots after every minute and every mutation (checkSlots).
func FuzzSimulatorSlots(f *testing.F) {
	f.Add([]byte{0, 0, 3, 9, 0, 0, 1, 7, 0, 0, 5, 1, 0, 0, 4, 2, 0, 0})
	f.Add([]byte{3, 4, 3, 17, 2, 3, 0, 0, 5, 0, 5, 3, 0, 0, 1, 14, 0, 0, 6, 1, 0, 0})
	f.Add([]byte{5, 2, 0, 0, 5, 1, 0, 0, 1, 5, 1, 12, 0, 0, 5, 0, 5, 2, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		sim := slotSim(t)
		dep := sim.dep
		minute, stepped := 0, -1
		pick := func(arg byte) *service.Instance {
			all := dep.Instances()
			if len(all) == 0 {
				return nil
			}
			return all[int(arg)%len(all)]
		}
		for ; len(ops) >= 2 && minute < 120; ops = ops[2:] {
			op, arg := ops[0], ops[1]
			host := slotHosts[int(arg>>4)%len(slotHosts)].Name
			switch op % 7 {
			case 0, 6:
				if err := sim.Step(minute); err != nil {
					t.Fatalf("minute %d: %v", minute, err)
				}
				stepped = minute
				minute++
			case 1:
				svcs := sim.dep.Catalog().Names()
				_, _ = dep.Start(svcs[int(arg)%len(svcs)], host)
			case 2:
				if inst := pick(arg); inst != nil {
					_ = dep.Stop(inst.ID, arg&8 != 0)
				}
			case 3:
				if inst := pick(arg); inst != nil {
					_ = dep.Move(inst.ID, host)
				}
			case 4:
				// An instance crash, as injectFailures makes one.
				if inst := pick(arg); inst != nil {
					sim.crash(inst, minute)
					if err := dep.Stop(inst.ID, true); err != nil {
						t.Fatal(err)
					}
				}
			case 5:
				// A pool change through applyHostEvents, at a minute no
				// Step reaches: add the host if it is out, else remove it
				// unless it is the last.
				ev := HostEvent{Minute: -1}
				if _, ok := dep.Cluster().Host(host); !ok {
					h := slotHosts[int(arg>>4)%len(slotHosts)]
					ev.Add = &h
				} else if dep.Cluster().Len() > 1 {
					ev.Remove = host
				} else {
					continue
				}
				sim.cfg.HostEvents = []HostEvent{ev}
				if err := sim.applyHostEvents(-1); err != nil {
					t.Fatal(err)
				}
			}
			checkSlots(t, sim, stepped)
		}
	})
}
