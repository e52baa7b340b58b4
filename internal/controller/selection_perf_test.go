package controller

import (
	"fmt"
	"math/rand"
	"testing"

	"autoglobe/internal/archive"
	"autoglobe/internal/cluster"
	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/service"
)

// candLess is the pinned SelectActions candidate order: applicability
// descending, then the canonical action order, then (service, instance
// ID). The tests below assert SelectActions output is sorted under
// exactly this comparator, so parallel scoring can never reorder ties.
func candLess(a, b Candidate) bool {
	if a.Applicability != b.Applicability {
		return a.Applicability > b.Applicability
	}
	if a.Action != b.Action {
		return a.Action < b.Action
	}
	if a.Service != b.Service {
		return a.Service < b.Service
	}
	return a.InstanceID < b.InstanceID
}

// TestSelectActionsTieBreakPinned is the regression test for the
// deterministic tie-break: two identical services on one overloaded
// host produce pairwise-equal applicabilities, and equal-applicability
// candidates of the same action must sort by (service, instance ID).
func TestSelectActionsTieBreakPinned(t *testing.T) {
	cl := cluster.MustNew(
		host("mid1", 2, 8192), host("mid2", 2, 8192),
		host("big1", 9, 12288), host("weak1", 1, 4096),
	)
	same := func(name string) *service.Service {
		return &service.Service{
			Name: name, Type: service.TypeInteractive, MinInstances: 1,
			Allowed: allActions(), MemoryMBPerInstance: 1024,
			UsersPerUnit: 150, RequestWeight: 1,
		}
	}
	dep := service.NewDeployment(cl, service.MustCatalog(same("aaa"), same("bbb")))
	arch := archive.New(0)
	ctl, err := New(Config{}, dep, arch, NewDeploymentExecutor(dep, RebalanceUsers))
	if err != nil {
		t.Fatal(err)
	}
	ia, err := dep.Start("aaa", "mid1")
	if err != nil {
		t.Fatal(err)
	}
	ib, err := dep.Start("bbb", "mid1")
	if err != nil {
		t.Fatal(err)
	}
	tb := &testbed{dep: dep, arch: arch, ctl: ctl}
	tb.record(t, archive.HostEntity("mid1"), 0.95, 0.5)
	for _, h := range []string{"mid2", "big1", "weak1"} {
		tb.record(t, archive.HostEntity(h), 0.10, 0.1)
	}
	for _, inst := range []*service.Instance{ia, ib} {
		tb.record(t, archive.InstanceEntity(inst.ID), 0.45, 0.3)
		tb.record(t, archive.ServiceEntity(inst.Service), 0.45, 0.3)
	}

	cands, err := ctl.SelectActions(trigger(monitor.ServerOverloaded, "mid1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 2 {
		t.Fatalf("want candidates for both services, got %v", cands)
	}
	for i := 1; i < len(cands); i++ {
		if candLess(cands[i], cands[i-1]) {
			t.Fatalf("candidates %d/%d out of pinned order: %+v before %+v",
				i-1, i, cands[i-1], cands[i])
		}
	}
	// The two services are indistinguishable, so every action proposed
	// for one is proposed for the other with equal applicability — and
	// the aaa candidate must come first in each pair.
	pairs := 0
	for i := 1; i < len(cands); i++ {
		a, b := cands[i-1], cands[i]
		if a.Applicability == b.Applicability && a.Action == b.Action && a.Service != b.Service {
			pairs++
			if !(a.Service == "aaa" && b.Service == "bbb") {
				t.Fatalf("equal-applicability tie broken wrong: %+v before %+v", a, b)
			}
		}
	}
	if pairs == 0 {
		t.Fatal("landscape produced no equal-applicability cross-service ties; test lost its teeth")
	}
}

// TestSelectionPathZeroAlloc guards the tentpole claim end to end:
// steady-state server selection — indexed candidate enumeration, bound
// vector fill, pooled inference, argmax — must not allocate at all.
func TestSelectionPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	tb := newTestbed(t, Config{})
	inst, err := tb.dep.Start("app", "weak1")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"weak1", "weak2", "mid1", "mid2", "big1", "big2"} {
		tb.record(t, archive.HostEntity(h), 0.2, 0.2)
	}
	for i := 0; i < 100; i++ { // warm pools and recycled buffers
		for _, a := range []service.Action{service.ActionScaleOut, service.ActionScaleUp, service.ActionMove} {
			tb.ctl.SelectHost(a, "app", inst.ID, 10)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if h, _ := tb.ctl.SelectHost(service.ActionScaleOut, "app", inst.ID, 10); h == "" {
			t.Fatal("no host selected")
		}
		tb.ctl.SelectHost(service.ActionScaleUp, "app", inst.ID, 10)
		tb.ctl.SelectHost(service.ActionMove, "app", inst.ID, 10)
	})
	if allocs != 0 {
		t.Fatalf("steady-state selection allocates %v times per run, want 0", allocs)
	}
}

// TestRefreshHostZeroAlloc is the perf gate of the placement index's
// write path on the tiled 1,007-host / 636-service landscape, with the
// registry attached: recomputing a host's feasibility column — one
// state gather, one verdict per constraint shape — allocates nothing,
// and the index holds the paper catalog's three shapes, not 636 services.
func TestRefreshHostZeroAlloc(t *testing.T) {
	dep := tiledDeployment(t, 53)
	ctl, err := New(Config{}, dep, archive.New(0), NewDeploymentExecutor(dep, RebalanceUsers))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctl.Instrument(reg)
	snap := reg.Snapshot()
	if hosts, shapes := snap[MetricPlacementHosts], snap[MetricPlacementShapes]; hosts != 1007 || shapes != 3 {
		t.Fatalf("index reports %v hosts and %v shapes, want 1007 and 3", hosts, shapes)
	}
	names := dep.Cluster().Names()
	allocs := testing.AllocsPerRun(3, func() {
		for _, h := range names {
			ctl.pindex.RefreshHost(h)
		}
	})
	if allocs != 0 {
		t.Fatalf("refreshing every host allocates %v times, want 0", allocs)
	}
	if got, want := reg.Snapshot()[MetricPlacementRefreshes], float64(4*len(names)); got != want {
		t.Fatalf("%s = %v after 4 sweeps over %d hosts, want %v", MetricPlacementRefreshes, got, len(names), want)
	}
}

// randomLandscape builds a deployment plus archive with nHosts hosts of
// mixed performance indexes and three services of varying placement
// constraints, all derived from rng so parity runs see the same world.
func randomLandscape(t *testing.T, rng *rand.Rand, nHosts int) (*service.Deployment, *archive.Archive) {
	t.Helper()
	pis := []float64{1, 1, 2, 2, 5, 9}
	mems := []int{2048, 4096, 8192, 16384}
	hosts := make([]cluster.Host, nHosts)
	for i := range hosts {
		hosts[i] = host(fmt.Sprintf("h%03d", i), pis[rng.Intn(len(pis))], mems[rng.Intn(len(mems))])
	}
	cat := service.MustCatalog(
		&service.Service{
			Name: "web", Type: service.TypeInteractive, MinInstances: 1, MaxInstances: 40,
			Allowed: allActions(), MemoryMBPerInstance: 512, UsersPerUnit: 150, RequestWeight: 1,
		},
		&service.Service{
			Name: "app", Type: service.TypeInteractive, MinInstances: 1, MaxInstances: 40,
			Allowed: allActions(), MemoryMBPerInstance: 1536, UsersPerUnit: 150, RequestWeight: 1,
		},
		&service.Service{
			Name: "cache", Type: service.TypeInteractive, MinInstances: 0, MaxInstances: 40,
			MinPerfIndex: 2, Allowed: allActions(), MemoryMBPerInstance: 3072,
			UsersPerUnit: 150, RequestWeight: 1,
		},
	)
	dep := service.NewDeployment(cluster.MustNew(hosts...), cat)
	arch := archive.New(0)
	for _, h := range hosts {
		if err := arch.Record(archive.HostEntity(h.Name), archive.Sample{
			Minute: 10, CPU: rng.Float64(), Mem: rng.Float64(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return dep, arch
}

// TestSelectHostParityAcrossConfigs is the controller-level property
// test: over a randomized landscape under random mutation and
// protection churn, the indexed path and the full-scan reference path
// must return byte-identical (host, score) selections at every step.
func TestSelectHostParityAcrossConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dep, arch := randomLandscape(t, rng, 48)
	exec := NewDeploymentExecutor(dep, RebalanceUsers)
	mk := func(cfg Config) *Controller {
		c, err := New(cfg, dep, arch, exec)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	indexed := mk(Config{})
	scan := mk(Config{DisablePlacementIndex: true})
	ctls := []*Controller{indexed, scan}

	names := dep.Cluster().Names()
	svcs := []string{"web", "app", "cache"}
	actions := []service.Action{
		service.ActionScaleOut, service.ActionScaleUp,
		service.ActionScaleDown, service.ActionMove, service.ActionStart,
	}
	for step := 0; step < 400; step++ {
		switch insts := dep.Instances(); {
		case len(insts) < 4 || rng.Intn(3) == 0:
			dep.Start(svcs[rng.Intn(len(svcs))], names[rng.Intn(len(names))])
		case rng.Intn(2) == 0:
			dep.Move(insts[rng.Intn(len(insts))].ID, names[rng.Intn(len(names))])
		default:
			dep.Stop(insts[rng.Intn(len(insts))].ID, true)
		}
		if rng.Intn(4) == 0 {
			// Protection lives on the controller, not the index; mirror it
			// on every controller so only the lookup strategy differs.
			h, until := names[rng.Intn(len(names))], rng.Intn(30)
			for _, c := range ctls {
				c.protHost[h] = until
			}
		}
		insts := dep.Instances()
		if len(insts) == 0 {
			continue
		}
		inst := insts[rng.Intn(len(insts))]
		a := actions[rng.Intn(len(actions))]
		minute := rng.Intn(25)
		h0, s0 := indexed.SelectHost(a, inst.Service, inst.ID, minute)
		h2, s2 := scan.SelectHost(a, inst.Service, inst.ID, minute)
		if h0 != h2 || s0 != s2 {
			t.Fatalf("step %d %s %s: full scan selected (%q, %v), indexed (%q, %v)",
				step, a, inst.ID, h2, s2, h0, s0)
		}
	}
}
