package service

import (
	"slices"
	"strings"
	"testing"

	"autoglobe/internal/cluster"
)

// TestDeploymentSnapshots pins the contract of InstancesOn, InstancesOf
// and Instances: lexicographic ID order, lists refreshed by every Start,
// Stop and Move, and shared snapshots that neither a later mutation nor
// a caller's append edits.
func TestDeploymentSnapshots(t *testing.T) {
	d := NewDeployment(testCluster(t), testCatalog())
	start := func(svc, host string) *Instance {
		t.Helper()
		inst, err := d.Start(svc, host)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	want := func(what string, got []*Instance, ids ...string) {
		t.Helper()
		var have []string
		for _, inst := range got {
			have = append(have, inst.ID)
		}
		if !slices.Equal(have, ids) {
			t.Errorf("%s = %v, want %v", what, have, ids)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: cap %d > len %d, an append would write into the snapshot's array", what, cap(got), len(got))
		}
	}

	// Burn IDs 1–8 so the next two starts mint app-9 and app-10: ID
	// order is lexicographic, so app-10 sorts first.
	for i := 0; i < 8; i++ {
		if err := d.Stop(start("app", "small1").ID, true); err != nil {
			t.Fatal(err)
		}
	}
	start("app", "small1")
	a10 := start("app", "small2")
	want("InstancesOf(app)", d.InstancesOf("app"), "app-10", "app-9")
	want("Instances()", d.Instances(), "app-10", "app-9")
	want("InstancesOn(small1)", d.InstancesOn("small1"), "app-9")

	heldAll, heldOf, heldOn := d.Instances(), d.InstancesOf("app"), d.InstancesOn("small1")
	copies := [][]*Instance{slices.Clone(heldAll), slices.Clone(heldOf), slices.Clone(heldOn)}
	unchanged := func(after string) {
		t.Helper()
		for i, held := range [][]*Instance{heldAll, heldOf, heldOn} {
			if !slices.Equal(held, copies[i]) {
				t.Errorf("after %s: a snapshot handed out earlier changed: %v, was %v", after, held, copies[i])
			}
		}
	}

	start("db", "big1")
	want("Start: Instances()", d.Instances(), "app-10", "app-9", "db-11")
	want("Start: InstancesOf(db)", d.InstancesOf("db"), "db-11")
	want("Start: InstancesOn(big1)", d.InstancesOn("big1"), "db-11")
	unchanged("Start")

	if err := d.Move("app-9", "big2"); err != nil {
		t.Fatal(err)
	}
	want("Move: InstancesOn(small1)", d.InstancesOn("small1"))
	want("Move: InstancesOn(big2)", d.InstancesOn("big2"), "app-9")
	want("Move: InstancesOf(app)", d.InstancesOf("app"), "app-10", "app-9")
	unchanged("Move")

	if err := d.Stop("app-9", false); err != nil {
		t.Fatal(err)
	}
	want("Stop: InstancesOn(big2)", d.InstancesOn("big2"))
	want("Stop: InstancesOf(app)", d.InstancesOf("app"), "app-10")
	want("Stop: Instances()", d.Instances(), "app-10", "db-11")
	unchanged("Stop")

	// The last instance of app is below MinInstances: only a forced stop
	// goes through.
	if err := d.Stop("app-10", true); err != nil {
		t.Fatal(err)
	}
	want("forced Stop: InstancesOn(small2)", d.InstancesOn("small2"))
	want("forced Stop: InstancesOf(app)", d.InstancesOf("app"))
	want("forced Stop: Instances()", d.Instances(), "db-11")
	unchanged("forced Stop")

	// Two callers appending to one snapshot must not see each other's
	// element, nor may the next read.
	start("app", "small1")
	got := d.InstancesOf("app")
	x := append(got, a10)
	y := append(got, heldOn[0])
	if x[1] != a10 || y[1] != heldOn[0] {
		t.Error("two appends to one snapshot share a backing array")
	}
	want("after appends: InstancesOf(app)", d.InstancesOf("app"), "app-12")
}

// FuzzDeploymentSnapshots drives a deployment through arbitrary Start,
// Stop (forced or not) and Move sequences and compares every host's,
// every service's and the overall snapshot, after every operation, with
// a reference filtered from the instance map and sorted by ID;
// snapshots held since earlier operations must still read as they did.
// Each operation is three bytes: the operation, then two operands.
func FuzzDeploymentSnapshots(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 3, 0, 2, 1, 0, 0, 2, 1, 0})
	f.Add([]byte("\x00\x00\x00\x00\x01\x00\x00\x02\x00\x00\x03\x00\x01\x00\x00\x02\x01\x00\x03\x00\x01"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		mk := func(name string) cluster.Host {
			return cluster.Host{
				Name: name, Category: "t", PerformanceIndex: 1, CPUs: 1,
				ClockMHz: 1000, CacheKB: 512, MemoryMB: 8192, SwapMB: 8192, TempMB: 1024,
			}
		}
		cl := cluster.MustNew(mk("h1"), mk("h2"), mk("h3"), mk("h4"))
		cat := MustCatalog(
			&Service{Name: "a", Type: TypeInteractive, MinInstances: 1, MemoryMBPerInstance: 1024},
			&Service{Name: "b", Type: TypeInteractive, MaxInstances: 3, MemoryMBPerInstance: 1024},
			&Service{Name: "c", Type: TypeBatch, MemoryMBPerInstance: 2048},
		)
		d := NewDeployment(cl, cat)
		hosts, svcs := cl.Names(), cat.Names()
		type held struct{ got, was []*Instance }
		var kept []held

		for i := 0; i+2 < len(ops); i += 3 {
			op, a, b := ops[i]%4, int(ops[i+1]), int(ops[i+2])
			all := d.Instances()
			switch {
			case op == 0:
				d.Start(svcs[a%len(svcs)], hosts[b%len(hosts)])
			case len(all) == 0:
			case op == 3:
				d.Move(all[a%len(all)].ID, hosts[b%len(hosts)])
			default:
				d.Stop(all[a%len(all)].ID, op == 2)
			}

			for _, h := range hosts {
				checkSnapshot(t, "InstancesOn("+h+")", d.InstancesOn(h),
					d.collect(func(inst *Instance) bool { return inst.Host == h }))
			}
			for _, s := range svcs {
				checkSnapshot(t, "InstancesOf("+s+")", d.InstancesOf(s),
					d.collect(func(inst *Instance) bool { return inst.Service == s }))
			}
			checkSnapshot(t, "Instances()", d.Instances(), d.collect(func(*Instance) bool { return true }))

			if len(kept) < 16 {
				got := d.InstancesOn(hosts[b%len(hosts)])
				kept = append(kept, held{got, slices.Clone(got)})
			}
			for _, k := range kept {
				if !slices.Equal(k.got, k.was) {
					t.Fatalf("after operation %d: a held snapshot changed: %v, was %v", i/3, k.got, k.was)
				}
			}
		}
	})
}

// collect is the reference the snapshots are checked against: the
// instances of the instance map that keep passes, sorted by ID.
func (d *Deployment) collect(keep func(*Instance) bool) []*Instance {
	var out []*Instance
	for _, inst := range d.instances {
		if keep(inst) {
			out = append(out, inst)
		}
	}
	slices.SortFunc(out, func(a, b *Instance) int { return strings.Compare(a.ID, b.ID) })
	return out
}

func checkSnapshot(t *testing.T, what string, got, want []*Instance) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("%s: cap %d > len %d", what, cap(got), len(got))
	}
}
