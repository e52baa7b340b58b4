package controller

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"autoglobe/internal/archive"
	"autoglobe/internal/cluster"
	"autoglobe/internal/fuzzy"
	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/service"
)

// candLess is the pinned SelectActions candidate order: applicability
// descending, then the canonical action order, then (service, instance
// ID). The tests below assert SelectActions output is sorted under
// exactly this comparator.
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
	dep := service.TilePaper(53)
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

// parityRand is what the selection parity loop draws its world and its
// steps from: a seeded *rand.Rand in the test, the fuzz input in
// FuzzSelectHostParity.
type parityRand interface {
	Intn(n int) int
	Float64() float64
}

// bytesRand draws one byte of the fuzz input a choice, and zeros once
// the input is spent.
type bytesRand struct{ b []byte }

func (r *bytesRand) next() int {
	if len(r.b) == 0 {
		return 0
	}
	v := int(r.b[0])
	r.b = r.b[1:]
	return v
}

func (r *bytesRand) Intn(n int) int   { return r.next() % n }
func (r *bytesRand) Float64() float64 { return float64(r.next()) / 256 }
func (r *bytesRand) spent() bool      { return len(r.b) == 0 }

// randomLandscape builds a deployment plus archive with nHosts hosts of
// mixed performance indexes and three services of varying placement
// constraints, all derived from rng so parity runs see the same world.
// Every fourth host has no sample yet: its first lands, if at all, after
// a selection has scored it.
func randomLandscape(t *testing.T, rng parityRand, nHosts int) (*service.Deployment, *archive.Archive) {
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
	for i, h := range hosts {
		if i%4 == 3 {
			continue
		}
		if err := arch.Record(archive.HostEntity(h.Name), archive.Sample{
			Minute: 10, CPU: rng.Float64(), Mem: rng.Float64(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return dep, arch
}

// contrarianPlacement scores over the placement base's inputs, in the
// same slot order, and prefers what it avoids: a memo that forgot its
// rule base would hand one base's score to the other.
const contrarianPlacement = `
IF cpuLoad IS high THEN score IS applicable
IF cpuLoad IS low AND memLoad IS low THEN score IS notApplicable
IF instancesOnServer IS high THEN score IS applicable
IF tempSpace IS scarce THEN score IS applicable
`

// selectHostParity is the controller-level property loop: over a
// randomized landscape under random mutation, protection churn, archive
// appends (+0, −0 and NaN loads among them, and hosts first sampled
// after they were scored), hot swaps of
// select/placement to a separately compiled copy and back, and shadow
// selections under a different base, the controller's selection — the
// placement index's candidates, whose refs memoise their scores — and
// the full-scan reference in scan_test.go, whose refs are fresh every
// call and never hit, must return bit-equal (host, score) selections at
// every step. It stops after steps steps or, for a bytesRand, once the
// input is spent.
func selectHostParity(t *testing.T, rng parityRand, steps int) {
	t.Helper()
	dep, arch := randomLandscape(t, rng, 48)
	ctl, err := New(Config{}, dep, arch, NewDeploymentExecutor(dep, RebalanceUsers))
	if err != nil {
		t.Fatal(err)
	}

	vc := SelectionVocabulary()
	placementBase := DefaultSelectionRules()[service.ActionScaleOut]
	placementCopy := fuzzy.MustRuleBase("select/placement", vc, fuzzy.MustParse(placementRules))
	contrarian := fuzzy.MustRuleBase("select/contrarian", vc, fuzzy.MustParse(contrarianPlacement))
	shadowSel := map[service.Action]*fuzzy.RuleBase{
		service.ActionScaleOut: contrarian, service.ActionStart: contrarian,
	}
	ctl.Shadow("contrarian", nil, shadowSel)

	names := dep.Cluster().Names()
	svcs := []string{"web", "app", "cache"}
	actions := []service.Action{
		service.ActionScaleOut, service.ActionScaleUp,
		service.ActionScaleDown, service.ActionMove, service.ActionStart,
	}
	load := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.NaN()
		}
		return rng.Float64()
	}
	clock, swapped, a := 10, false, actions[0]
	br, fuzzing := rng.(*bytesRand)
	// Half the placements aim at the first six hosts, so that hosts run
	// two and three instances and instancesOnServer moves the score.
	target := func() string {
		if rng.Intn(2) == 0 {
			return names[rng.Intn(6)]
		}
		return names[rng.Intn(len(names))]
	}
	for step := 0; step < steps && !(fuzzing && br.spent()); step++ {
		switch insts := dep.Instances(); {
		case len(insts) < 16 || rng.Intn(2) == 0:
			dep.Start(svcs[rng.Intn(len(svcs))], target())
		case rng.Intn(2) == 0:
			dep.Move(insts[rng.Intn(len(insts))].ID, target())
		default:
			dep.Stop(insts[rng.Intn(len(insts))].ID, true)
		}
		if rng.Intn(4) == 0 {
			// Protection lives on the controller, not the index: both
			// paths consult the same map.
			ctl.protHost[names[rng.Intn(len(names))]] = rng.Intn(30)
		}
		for n := rng.Intn(4); n > 0; n-- {
			clock += rng.Intn(2)
			h := names[rng.Intn(len(names))]
			if err := arch.Record(archive.HostEntity(h), archive.Sample{Minute: clock, CPU: load(), Mem: load()}); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(8) == 0 {
			rb := placementCopy
			if swapped {
				rb = placementBase
			}
			if err := ctl.SwapRuleBase("select/placement", rb); err != nil {
				t.Fatal(err)
			}
			swapped = !swapped
		}
		insts := dep.Instances()
		if len(insts) == 0 {
			continue
		}
		inst := insts[rng.Intn(len(insts))]
		if rng.Intn(4) == 0 { // storms repeat an action: consecutive selections share a base
			a = actions[rng.Intn(len(actions))]
		}
		minute := rng.Intn(25)
		if rng.Intn(3) == 0 {
			rs := ctl.shadow.Load().overlay(ctl.ruleset())
			h0, s0 := ctl.selectHostIn(rs, a, inst.Service, inst.ID, minute, nil, false)
			h1, s1 := ctl.scanSelectHost(rs, a, inst.Service, inst.ID, minute)
			if h0 != h1 || math.Float64bits(s0) != math.Float64bits(s1) {
				t.Fatalf("step %d shadow %s %s: full scan selected (%q, %v), indexed (%q, %v)",
					step, a, inst.ID, h1, s1, h0, s0)
			}
		}
		h0, s0 := ctl.SelectHost(a, inst.Service, inst.ID, minute)
		h1, s1 := ctl.scanSelectHost(ctl.ruleset(), a, inst.Service, inst.ID, minute)
		if h0 != h1 || math.Float64bits(s0) != math.Float64bits(s1) {
			t.Fatalf("step %d %s %s: full scan selected (%q, %v), indexed (%q, %v)",
				step, a, inst.ID, h1, s1, h0, s0)
		}
	}
}

// TestSelectHostParityAcrossConfigs runs the parity loop on a seeded
// stream.
func TestSelectHostParityAcrossConfigs(t *testing.T) {
	selectHostParity(t, rand.New(rand.NewSource(7)), 400)
}

// FuzzSelectHostParity drives the parity loop from the fuzz input, one
// byte a choice: the world, then the steps, until the input is spent.
func FuzzSelectHostParity(f *testing.F) {
	seed := make([]byte, 512)
	rand.New(rand.NewSource(7)).Read(seed)
	f.Add(seed)
	f.Add([]byte{0, 1, 2, 3, 255, 254, 253, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		selectHostParity(t, &bytesRand{b: data}, 400)
	})
}
