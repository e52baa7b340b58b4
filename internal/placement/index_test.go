package placement

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"autoglobe/internal/cluster"
	"autoglobe/internal/fuzzy"
	"autoglobe/internal/service"
)

// protStub mirrors the controller's protection semantics: a host is
// protected while the recorded minute is still in the future.
type protStub map[string]int

func (p protStub) HostProtected(host string, minute int) bool { return p[host] > minute }

// testCatalog has six services of four shapes: web/web2 and db/db2 are
// shape twins, which share one index entry and differ only by the
// identity rule applied at query time.
func testCatalog(t *testing.T) *service.Catalog {
	t.Helper()
	cat, err := service.NewCatalog(
		&service.Service{Name: "web", Type: service.TypeInteractive,
			MemoryMBPerInstance: 512, MaxInstances: 20},
		&service.Service{Name: "web2", Type: service.TypeBatch,
			MemoryMBPerInstance: 512, MaxInstances: 3},
		&service.Service{Name: "app", Type: service.TypeInteractive,
			MemoryMBPerInstance: 1024, MaxInstances: 20},
		&service.Service{Name: "cache", Type: service.TypeInteractive,
			MemoryMBPerInstance: 2048, MinPerfIndex: 2, MaxInstances: 20},
		&service.Service{Name: "db", Type: service.TypeInteractive,
			MemoryMBPerInstance: 8192, MinPerfIndex: 5, Exclusive: true, MaxInstances: 20},
		&service.Service{Name: "db2", Type: service.TypeDatabase,
			MemoryMBPerInstance: 8192, MinPerfIndex: 5, Exclusive: true, MaxInstances: 20},
	)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func testHost(name string, pi float64, memMB int) cluster.Host {
	return cluster.Host{Name: name, Category: fmt.Sprintf("PI%g", pi), PerformanceIndex: pi,
		CPUs: 2, ClockMHz: 2000, CacheKB: 512, MemoryMB: memMB, SwapMB: 1024, TempMB: 4096}
}

// scanCandidates is the full-scan reference the index must agree with:
// walk the whole cluster, apply CanPlace and the query-time filters.
func scanCandidates(dep *service.Deployment, prot Protection, svc string, rel Rel, srcPI float64, minute int, exclude map[string]bool) []string {
	var out []string
	for _, name := range dep.Cluster().Names() {
		if exclude[name] {
			continue
		}
		if prot != nil && prot.HostProtected(name, minute) {
			continue
		}
		h, _ := dep.Cluster().Host(name)
		if !match(rel, h.PerformanceIndex, srcPI) {
			continue
		}
		if dep.CanPlace(svc, name) != nil {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func indexedNames(ix *Index, svc string, rel Rel, srcPI float64, minute int, exclude map[string]bool) []string {
	refs := ix.AppendCandidates(nil, svc, rel, srcPI, minute, exclude)
	out := make([]string, 0, len(refs))
	for _, r := range refs {
		out = append(out, r.Host.Name)
	}
	sort.Strings(out)
	return out
}

func assertParity(t *testing.T, dep *service.Deployment, ix *Index, prot Protection, minute int, step string) {
	t.Helper()
	pis := []float64{0, 1, 2, 5, 9}
	for _, svc := range dep.Catalog().Names() {
		for rel := RelAny; rel <= RelEqual; rel++ {
			for _, src := range pis {
				want := scanCandidates(dep, prot, svc, rel, src, minute, nil)
				got := indexedNames(ix, svc, rel, src, minute, nil)
				if len(want) != len(got) {
					t.Fatalf("%s: svc=%s rel=%d src=%g: index %v != scan %v", step, svc, rel, src, got, want)
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("%s: svc=%s rel=%d src=%g: index %v != scan %v", step, svc, rel, src, got, want)
					}
				}
				if any := ix.AnyCandidate(svc, rel, src, minute, nil); any != (len(want) > 0) {
					t.Fatalf("%s: svc=%s rel=%d src=%g: AnyCandidate=%v, scan has %d", step, svc, rel, src, any, len(want))
				}
			}
		}
	}
}

func TestIndexMatchesScanOnBasicMutations(t *testing.T) {
	cl := cluster.MustNew(
		testHost("weak1", 1, 2048), testHost("weak2", 1, 2048),
		testHost("mid1", 2, 4096), testHost("big1", 9, 12288),
	)
	dep := service.NewDeployment(cl, testCatalog(t))
	prot := protStub{}
	ix := NewIndex(dep, func(h string) string { return "host/" + h })
	ix.SetProtection(prot)
	assertParity(t, dep, ix, prot, 0, "initial")

	inst, err := dep.Start("db", "big1")
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, dep, ix, prot, 0, "after start db")

	if _, err := dep.Start("app", "weak1"); err != nil {
		t.Fatal(err)
	}
	assertParity(t, dep, ix, prot, 0, "after start app")

	if err := dep.Stop(inst.ID, true); err != nil {
		t.Fatal(err)
	}
	assertParity(t, dep, ix, prot, 0, "after stop db")

	app := dep.InstancesOf("app")[0]
	if err := dep.Move(app.ID, "weak2"); err != nil {
		t.Fatal(err)
	}
	assertParity(t, dep, ix, prot, 0, "after move app")

	if err := cl.Add(testHost("big2", 9, 12288)); err != nil {
		t.Fatal(err)
	}
	assertParity(t, dep, ix, prot, 0, "after add host")

	if err := cl.Remove("mid1"); err != nil {
		t.Fatal(err)
	}
	assertParity(t, dep, ix, prot, 0, "after remove host")

	prot["weak2"] = 100
	assertParity(t, dep, ix, prot, 50, "protected minute 50")
	assertParity(t, dep, ix, prot, 100, "protection expired")
}

func TestIndexExcludeAndEntityKey(t *testing.T) {
	cl := cluster.MustNew(testHost("a", 1, 2048), testHost("b", 1, 2048))
	dep := service.NewDeployment(cl, testCatalog(t))
	ix := NewIndex(dep, func(h string) string { return "host/" + h })
	got := indexedNames(ix, "web", RelAny, 0, 0, map[string]bool{"a": true})
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("exclude: got %v, want [b]", got)
	}
	refs := ix.AppendCandidates(nil, "web", RelAny, 0, 0, map[string]bool{"b": true})
	if len(refs) != 1 || refs[0].Host.Name != "a" || refs[0].Entity != "host/a" {
		t.Fatalf("candidates excluding b = %+v, want a with entity host/a", refs)
	}
}

// TestIndexShapeTwins pins what sharing one index entry between
// services of equal shape must not blur: the identity rule. A host
// running one twin stays a candidate for the other, a service whose
// every shape-feasible host already runs it has no candidate while its
// twin has, and excluded and running hosts may overlap.
func TestIndexShapeTwins(t *testing.T) {
	cl := cluster.MustNew(testHost("a", 1, 2048), testHost("b", 1, 2048), testHost("big", 9, 12288))
	dep := service.NewDeployment(cl, testCatalog(t))
	ix := NewIndex(dep, nil)
	if n := len(ix.shapes); n != 4 {
		t.Fatalf("index holds %d shapes for 6 services of 4 shapes", n)
	}
	for _, h := range []string{"a", "b"} {
		if _, err := dep.Start("web", h); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		svc     string
		exclude map[string]bool
		want    string
	}{
		{"web", nil, "[big]"},
		{"web2", nil, "[a b big]"},
		{"web", map[string]bool{"a": true, "big": true}, "[]"},
		{"web2", map[string]bool{"a": true, "big": true}, "[b]"},
	} {
		if got := fmt.Sprint(indexedNames(ix, c.svc, RelAny, 0, 0, c.exclude)); got != c.want {
			t.Errorf("%s excluding %v: candidates %s, want %s", c.svc, c.exclude, got, c.want)
		}
		if got := ix.AnyCandidate(c.svc, RelAny, 0, 0, c.exclude); got != (c.want != "[]") {
			t.Errorf("%s excluding %v: AnyCandidate = %v, candidates %s", c.svc, c.exclude, got, c.want)
		}
	}
	// Every host of web's shape at PI 1 runs web: none for web, both for
	// its twin.
	if ix.AnyCandidate("web", RelEqual, 1, 0, nil) || !ix.AnyCandidate("web2", RelEqual, 1, 0, nil) {
		t.Error("AnyCandidate at PI 1: want none for web, some for web2")
	}
	// The second exclusive service: db takes big, db2 cannot join it.
	if _, err := dep.Start("db", "big"); err != nil {
		t.Fatal(err)
	}
	assertParity(t, dep, ix, nil, 0, "after start db")
	if ix.AnyCandidate("db2", RelAny, 0, 0, nil) {
		t.Error("db2 has a candidate beside the exclusive db")
	}
}

// TestIndexMatchesScanRandomized drives 10k random mutate/select steps
// — instance starts, stops, moves, host pooling, unpooling (with
// residents, which are then stopped or moved away while their host is
// gone) and re-pooling under the same name, protection-mode churn —
// and asserts after every step that the incrementally maintained
// candidate sets equal the full-scan reference for a random query, with
// periodic exhaustive sweeps.
func TestIndexMatchesScanRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cl := cluster.MustNew()
	hostSeq := 0
	var unpooled []cluster.Host
	// Coverage of what must not be vacuous: hosts re-pooled with
	// residents left, instances stopped on or moved off an unpooled
	// host, queries excluding a host that runs the service.
	var repooledResident, leftUnpooled, excludedRunning int
	var dep *service.Deployment
	addHost := func() {
		if n := len(unpooled); n > 0 && rng.Intn(2) == 0 {
			if dep.CountOn(unpooled[n-1].Name) > 0 {
				repooledResident++
			}
			_ = cl.Add(unpooled[n-1])
			unpooled = unpooled[:n-1]
			return
		}
		hostSeq++
		pis := []float64{1, 1, 1, 2, 2, 5, 9}
		pi := pis[rng.Intn(len(pis))]
		mem := []int{2048, 4096, 8192, 12288}[rng.Intn(4)]
		_ = cl.Add(testHost(fmt.Sprintf("h%03d", hostSeq), pi, mem))
	}
	for i := 0; i < 24; i++ {
		addHost()
	}
	dep = service.NewDeployment(cl, testCatalog(t))
	prot := protStub{}
	ix := NewIndex(dep, func(h string) string { return "host/" + h })
	ix.SetProtection(prot)

	svcs := dep.Catalog().Names()
	randInstance := func() *service.Instance {
		all := dep.Instances()
		if len(all) == 0 {
			return nil
		}
		return all[rng.Intn(len(all))]
	}
	// left counts a successful stop or move of an instance whose host is
	// unpooled at that moment.
	left := func(inst *service.Instance, err error) {
		if _, pooled := cl.Host(inst.Host); err == nil && !pooled {
			leftUnpooled++
		}
	}
	randHost := func() string {
		names := cl.Names()
		if len(names) == 0 {
			return ""
		}
		return names[rng.Intn(len(names))]
	}
	minute := 0
	for step := 0; step < 10000; step++ {
		minute += rng.Intn(2)
		switch op := rng.Intn(10); {
		case op < 4: // start
			if h := randHost(); h != "" {
				_, _ = dep.Start(svcs[rng.Intn(len(svcs))], h)
			}
		case op < 6: // stop
			if inst := randInstance(); inst != nil {
				was := *inst
				left(&was, dep.Stop(inst.ID, rng.Intn(2) == 0))
			}
		case op < 8: // move
			if inst, h := randInstance(), randHost(); inst != nil && h != "" {
				was := *inst
				left(&was, dep.Move(inst.ID, h))
			}
		case op < 9: // pool or unpool a host
			if rng.Intn(20) < 11 || cl.Len() < 8 {
				addHost()
			} else if name := randHost(); name != "" {
				h, _ := cl.Host(name)
				unpooled = append(unpooled, h)
				_ = cl.Remove(name)
			}
		default: // protection churn
			if h := randHost(); h != "" {
				if rng.Intn(2) == 0 {
					prot[h] = minute + rng.Intn(30)
				} else {
					delete(prot, h)
				}
			}
		}

		// Spot-check one random query per step, full sweep every 500.
		svc := svcs[rng.Intn(len(svcs))]
		rel := Rel(rng.Intn(4))
		src := []float64{0, 1, 2, 5, 9}[rng.Intn(5)]
		var exclude map[string]bool
		switch rng.Intn(8) {
		case 0, 1:
			if h := randHost(); h != "" {
				exclude = map[string]bool{h: true}
			}
		case 2: // exclude ∩ hosts already running the service
			if on := dep.AppendHostsOf(nil, svc); len(on) > 0 {
				exclude = map[string]bool{on[rng.Intn(len(on))]: true, randHost(): true}
				excludedRunning++
			}
		}
		want := scanCandidates(dep, prot, svc, rel, src, minute, exclude)
		got := indexedNames(ix, svc, rel, src, minute, exclude)
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Fatalf("step %d: svc=%s rel=%d src=%g: index %v != scan %v", step, svc, rel, src, got, want)
		}
		if any := ix.AnyCandidate(svc, rel, src, minute, exclude); any != (len(want) > 0) {
			t.Fatalf("step %d: AnyCandidate=%v, scan has %d", step, any, len(want))
		}
		if step%500 == 0 {
			assertParity(t, dep, ix, prot, minute, fmt.Sprintf("sweep@%d", step))
		}
	}
	if repooledResident < 20 || leftUnpooled < 20 || excludedRunning < 200 {
		t.Fatalf("thin coverage: %d hosts re-pooled with residents, %d instances left an unpooled host, %d queries excluded a running host",
			repooledResident, leftUnpooled, excludedRunning)
	}
	t.Logf("%d hosts pooled at the end, %d unpooled, %d instances; %d re-pooled with residents, %d left an unpooled host, %d excluded a running host",
		cl.Len(), len(unpooled), len(dep.Instances()), repooledResident, leftUnpooled, excludedRunning)
}

// TestAppendCandidatesReusesBuffer pins the zero-allocation contract of
// steady-state candidate enumeration: appending into a warmed buffer
// must not allocate.
func TestAppendCandidatesCanonicalOrder(t *testing.T) {
	cl := cluster.MustNew(
		testHost("z9", 9, 12288), testHost("a1", 1, 2048),
		testHost("m2", 2, 4096), testHost("b1", 1, 2048),
	)
	dep := service.NewDeployment(cl, testCatalog(t))
	ix := NewIndex(dep, nil)
	refs := ix.AppendCandidates(nil, "web", RelAny, 0, 0, nil)
	var got []string
	for _, r := range refs {
		got = append(got, r.Host.Name)
	}
	// Ascending PI buckets, insertion order within: a1,b1 (PI 1), m2, z9.
	want := []string{"a1", "b1", "m2", "z9"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("canonical order %v, want %v", got, want)
	}
}

// TestHostRefMemoKey pins the score memo's key: the rule base by
// pointer — a separately compiled twin misses — and every input slot by
// its bits, so that +0 and −0 miss each other and a NaN hits only its
// own payload. An input vector longer than the memo is never kept.
func TestHostRefMemoKey(t *testing.T) {
	vc := fuzzy.NewVocabulary()
	vc.Add(fuzzy.StandardLoad("x"))
	vc.Add(fuzzy.Applicability("score"))
	base := func() *fuzzy.RuleBase {
		return fuzzy.MustRuleBase("b", vc, fuzzy.MustParse("IF x IS low THEN score IS applicable"))
	}
	a, twin := base(), base()
	negZero, nan, otherNaN := math.Copysign(0, -1), math.NaN(), math.Float64frombits(math.Float64bits(math.NaN())^1)
	in := []float64{0.25, 0, nan, 3, 4, 5, 6, 7, 8, 9}

	var r HostRef
	if _, hit := r.Memoised(a, in); hit {
		t.Fatal("an empty memo hit")
	}
	r.Memoise(a, in, 0.75)
	if s, hit := r.Memoised(a, in); !hit || s != 0.75 {
		t.Fatalf("the stored key: (%v, %v), want (0.75, true)", s, hit)
	}
	if _, hit := r.Memoised(twin, in); hit {
		t.Fatal("a separately compiled twin base hit")
	}
	for i := range in {
		for _, v := range []float64{in[i] + 1, negZero, otherNaN} {
			probe := append([]float64(nil), in...)
			probe[i] = v
			if math.Float64bits(v) == math.Float64bits(in[i]) {
				continue
			}
			if _, hit := r.Memoised(a, probe); hit {
				t.Errorf("slot %d: %v hit the memo of %v", i, v, in[i])
			}
		}
	}
	long := append(append([]float64(nil), in...), 10)
	r.Memoise(a, long, 0.5)
	if _, hit := r.Memoised(a, long); hit {
		t.Fatal("an eleven-slot vector was kept")
	}
	if s, hit := r.Memoised(a, in); !hit || s != 0.75 {
		t.Fatalf("an unkept store replaced the memo: (%v, %v)", s, hit)
	}
}
