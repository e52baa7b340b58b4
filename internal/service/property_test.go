package service

import (
	"math/rand"
	"slices"
	"testing"

	"autoglobe/internal/cluster"
)

// driveRandom drives a fresh deployment through 400 random valid and
// invalid starts, stops and moves, calling check after every step.
func driveRandom(seed int64, check func(dep *Deployment, step int)) *Deployment {
	mk := func(name string, pi float64, memMB int) cluster.Host {
		return cluster.Host{
			Name: name, Category: "t", PerformanceIndex: pi, CPUs: 1,
			ClockMHz: 1000, CacheKB: 512, MemoryMB: memMB, SwapMB: memMB, TempMB: 1024,
		}
	}
	rng := rand.New(rand.NewSource(seed))
	cl := cluster.MustNew(
		mk("h1", 1, 2048), mk("h2", 1, 2048), mk("h3", 2, 4096),
		mk("h4", 2, 4096), mk("h5", 9, 12288),
	)
	cat := MustCatalog(
		&Service{Name: "a", Type: TypeInteractive, MinInstances: 0, MaxInstances: 3,
			MemoryMBPerInstance: 1024},
		&Service{Name: "b", Type: TypeInteractive, MinInstances: 0,
			MemoryMBPerInstance: 1024},
		&Service{Name: "x", Type: TypeDatabase, MinInstances: 0, MaxInstances: 1,
			Exclusive: true, MinPerfIndex: 5, MemoryMBPerInstance: 6144},
	)
	dep := NewDeployment(cl, cat)
	hosts := cl.Names()
	svcs := cat.Names()

	for step := 0; step < 400; step++ {
		switch rng.Intn(3) {
		case 0: // start
			svc := svcs[rng.Intn(len(svcs))]
			host := hosts[rng.Intn(len(hosts))]
			if inst, err := dep.Start(svc, host); err == nil {
				inst.Users = float64(rng.Intn(200))
			}
		case 1: // stop
			insts := dep.Instances()
			if len(insts) > 0 {
				dep.Stop(insts[rng.Intn(len(insts))].ID, rng.Intn(2) == 0)
			}
		case 2: // move
			insts := dep.Instances()
			if len(insts) > 0 {
				dep.Move(insts[rng.Intn(len(insts))].ID, hosts[rng.Intn(len(hosts))])
			}
		}
		check(dep, step)
	}
	return dep
}

// TestPropDeploymentInvariants checks after every step of long random
// operation sequences that the allocation never violates a declared
// constraint — whatever mix of valid and invalid starts, stops and
// moves arrives.
func TestPropDeploymentInvariants(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		dep := driveRandom(seed, func(dep *Deployment, step int) {
			if err := dep.Validate(); err != nil {
				t.Fatalf("seed %d step %d: invariant violated: %v", seed, step, err)
			}
		})
		hosts := dep.Cluster().Names()
		svcs := dep.Catalog().Names()

		// Index consistency: per-host and per-service views agree with
		// the instance list.
		total := 0
		for _, h := range hosts {
			total += dep.CountOn(h)
		}
		if total != len(dep.Instances()) {
			t.Fatalf("seed %d: host index counts %d, instances %d", seed, total, len(dep.Instances()))
		}
		total = 0
		for _, s := range svcs {
			total += dep.CountOf(s)
		}
		if total != len(dep.Instances()) {
			t.Fatalf("seed %d: service index counts %d, instances %d", seed, total, len(dep.Instances()))
		}
	}
}

// TestCanPlaceMatchesHostState pins the decomposition the placement
// index builds on: over random allocations, for every (service, host)
// pair — an unpooled host with residents included — CanPlace accepts
// exactly when the host's gathered state fits the service's shape and
// the host does not already run the service.
func TestCanPlaceMatchesHostState(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		driveRandom(seed, func(dep *Deployment, step int) {
			if step == 300 {
				if err := dep.Cluster().Remove("h3"); err != nil {
					t.Fatal(err)
				}
			}
			if step%10 != 0 {
				return
			}
			var hostsOf []string
			for _, svc := range dep.Catalog().All() {
				hostsOf = dep.AppendHostsOf(hostsOf[:0], svc.Name)
				for _, h := range []string{"h1", "h2", "h3", "h4", "h5"} {
					fits := dep.HostState(h).Check(svc.Shape(), "") == Fits
					runs := slices.Contains(hostsOf, h)
					if got := dep.CanPlace(svc.Name, h) == nil; got != (fits && !runs) {
						t.Fatalf("seed %d step %d: CanPlace(%s, %s) = %v, shape fits %v, runs %v",
							seed, step, svc.Name, h, got, fits, runs)
					}
				}
			}
		})
	}
}
