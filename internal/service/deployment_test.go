package service

import (
	"math"
	"strings"
	"testing"

	"autoglobe/internal/cluster"
)

func testCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	mk := func(name string, pi float64, memMB int) cluster.Host {
		return cluster.Host{
			Name: name, Category: "test", PerformanceIndex: pi,
			CPUs: 1, ClockMHz: 1000, CacheKB: 512, MemoryMB: memMB, SwapMB: memMB, TempMB: 1024,
		}
	}
	return cluster.MustNew(
		mk("small1", 1, 2048), mk("small2", 1, 2048),
		mk("big1", 9, 12288), mk("big2", 9, 12288),
	)
}

func testCatalog() *Catalog {
	return MustCatalog(
		&Service{
			Name: "app", Type: TypeInteractive, MinInstances: 1,
			Allowed:             actions(ActionScaleIn, ActionScaleOut, ActionMove),
			MemoryMBPerInstance: 1024, UsersPerUnit: 150, RequestWeight: 1,
		},
		&Service{
			Name: "db", Type: TypeDatabase, MinInstances: 1, MaxInstances: 1,
			Exclusive: true, MinPerfIndex: 5, MemoryMBPerInstance: 8192,
			UsersPerUnit: 150, RequestWeight: 1,
		},
	)
}

func TestStartAndLookup(t *testing.T) {
	d := NewDeployment(testCluster(t), testCatalog())
	inst, err := d.Start("app", "small1")
	if err != nil {
		t.Fatal(err)
	}
	if inst.Host != "small1" || inst.Service != "app" {
		t.Fatalf("instance = %+v", inst)
	}
	if d.CountOf("app") != 1 || d.CountOn("small1") != 1 {
		t.Error("counts wrong after start")
	}
	got, ok := d.Instance(inst.ID)
	if !ok || got != inst {
		t.Error("Instance lookup failed")
	}
}

func TestStartUnknownServiceOrHost(t *testing.T) {
	d := NewDeployment(testCluster(t), testCatalog())
	if _, err := d.Start("nope", "small1"); err == nil {
		t.Error("unknown service accepted")
	}
	if _, err := d.Start("app", "nope"); err == nil {
		t.Error("unknown host accepted")
	}
}

func TestMinPerfIndexEnforced(t *testing.T) {
	d := NewDeployment(testCluster(t), testCatalog())
	_, err := d.Start("db", "small1")
	if err == nil {
		t.Fatal("database started on PI-1 host")
	}
	if !strings.Contains(err.Error(), "performance index") {
		t.Errorf("error %q does not mention performance index", err)
	}
	if _, err := d.Start("db", "big1"); err != nil {
		t.Fatalf("database rejected on PI-9 host: %v", err)
	}
}

func TestExclusivityBothDirections(t *testing.T) {
	d := NewDeployment(testCluster(t), testCatalog())
	// db is exclusive: starting it on a host with residents must fail.
	if _, err := d.Start("app", "big1"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Start("db", "big1"); err == nil {
		t.Error("exclusive service started on occupied host")
	}
	// And nothing may join a host with an exclusive resident.
	if _, err := d.Start("db", "big2"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Start("app", "big2"); err == nil {
		t.Error("service joined host running an exclusive service")
	}
}

func TestOneInstancePerServicePerHost(t *testing.T) {
	d := NewDeployment(testCluster(t), testCatalog())
	if _, err := d.Start("app", "small1"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Start("app", "small1"); err == nil {
		t.Error("second instance of same service on same host accepted")
	}
}

func TestMemoryCapacityEnforced(t *testing.T) {
	cl := cluster.MustNew(cluster.Host{
		Name: "tiny", Category: "t", PerformanceIndex: 1,
		CPUs: 1, MemoryMB: 1500, SwapMB: 0, TempMB: 0, ClockMHz: 1000, CacheKB: 256,
	})
	cat := MustCatalog(
		&Service{Name: "a", Type: TypeInteractive, MemoryMBPerInstance: 1024},
		&Service{Name: "b", Type: TypeInteractive, MemoryMBPerInstance: 1024},
	)
	d := NewDeployment(cl, cat)
	if _, err := d.Start("a", "tiny"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Start("b", "tiny"); err == nil {
		t.Error("memory oversubscription accepted")
	}
}

func TestMaxInstances(t *testing.T) {
	d := NewDeployment(testCluster(t), testCatalog())
	if _, err := d.Start("db", "big1"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Start("db", "big2"); err == nil {
		t.Error("second db instance exceeds MaxInstances=1")
	}
}

func TestStopMinInstances(t *testing.T) {
	d := NewDeployment(testCluster(t), testCatalog())
	inst, err := d.Start("app", "small1")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Stop(inst.ID, false); err == nil {
		t.Error("stop below MinInstances accepted without force")
	}
	if err := d.Stop(inst.ID, true); err != nil {
		t.Errorf("forced stop failed: %v", err)
	}
	if d.CountOf("app") != 0 {
		t.Error("instance still present after stop")
	}
	if err := d.Stop(inst.ID, true); err == nil {
		t.Error("stopping a stopped instance accepted")
	}
}

func TestMove(t *testing.T) {
	d := NewDeployment(testCluster(t), testCatalog())
	inst, err := d.Start("app", "small1")
	if err != nil {
		t.Fatal(err)
	}
	inst.Users = 42
	if err := d.Move(inst.ID, "small2"); err != nil {
		t.Fatal(err)
	}
	if inst.Host != "small2" {
		t.Errorf("host after move = %q", inst.Host)
	}
	if inst.Users != 42 {
		t.Error("move must preserve users")
	}
	if d.CountOn("small1") != 0 || d.CountOn("small2") != 1 {
		t.Error("host indices wrong after move")
	}
	if err := d.Move(inst.ID, "small2"); err == nil {
		t.Error("move to current host accepted")
	}
	if err := d.Move("ghost", "small1"); err == nil {
		t.Error("move of unknown instance accepted")
	}
}

func TestMoveRespectsConstraints(t *testing.T) {
	d := NewDeployment(testCluster(t), testCatalog())
	dbInst, err := d.Start("db", "big1")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Move(dbInst.ID, "small1"); err == nil {
		t.Error("move of min-PI-5 service to PI-1 host accepted")
	}
	appInst, err := d.Start("app", "small1")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Move(appInst.ID, "big1"); err == nil {
		t.Error("move onto host with exclusive service accepted")
	}
}

func TestDeploymentValidate(t *testing.T) {
	d := NewDeployment(testCluster(t), testCatalog())
	if err := d.Validate(); err == nil {
		t.Error("empty deployment should violate app MinInstances=1")
	}
	if _, err := d.Start("app", "small1"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Start("db", "big1"); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("valid deployment rejected: %v", err)
	}
}

func TestInstancesSorted(t *testing.T) {
	d := NewDeployment(testCluster(t), testCatalog())
	if _, err := d.Start("app", "small2"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Start("app", "small1"); err != nil {
		t.Fatal(err)
	}
	all := d.Instances()
	if len(all) != 2 || all[0].ID > all[1].ID {
		t.Errorf("Instances not sorted: %v", all)
	}
	if got := d.InstancesOf("app"); len(got) != 2 {
		t.Errorf("InstancesOf = %v", got)
	}
}

func TestUsersOf(t *testing.T) {
	d := NewDeployment(testCluster(t), testCatalog())
	i1, _ := d.Start("app", "small1")
	i2, _ := d.Start("app", "small2")
	i1.Users, i2.Users = 100, 50
	if got := d.UsersOf("app"); got != 150 {
		t.Errorf("UsersOf = %g, want 150", got)
	}
}

// TestBuildPaperDeployment builds the full Figure 11 allocation and
// checks Table 4 instance counts and user distribution.
func TestBuildPaperDeployment(t *testing.T) {
	cl := cluster.Paper()
	d, err := BuildPaperDeployment(cl, ConstrainedMobility, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts := map[string]int{
		"FI": 3, "LES": 4, "PP": 2, "HR": 1, "CRM": 1, "BW": 2,
		"CI-ERP": 1, "CI-CRM": 1, "CI-BW": 1, "DB-ERP": 1, "DB-CRM": 1, "DB-BW": 1,
	}
	for svc, want := range wantCounts {
		if got := d.CountOf(svc); got != want {
			t.Errorf("%s: %d instances, want %d (Table 4 / Figure 11)", svc, got, want)
		}
	}
	// Users are distributed proportionally to performance: the FI
	// instance on Blade11 (PI 2) holds twice the users of Blade3 (PI 1).
	var onB3, onB11 float64
	for _, inst := range d.InstancesOf("FI") {
		switch inst.Host {
		case "Blade3":
			onB3 = inst.Users
		case "Blade11":
			onB11 = inst.Users
		}
	}
	if math.Abs(onB11-2*onB3) > 1e-9 {
		t.Errorf("FI users: Blade11 = %g, Blade3 = %g, want 2:1", onB11, onB3)
	}
	if got := d.UsersOf("FI"); math.Abs(got-600) > 1e-9 {
		t.Errorf("FI total users = %g, want 600", got)
	}
	// Multiplier scales everything.
	d15, err := BuildPaperDeployment(cl, ConstrainedMobility, 1.15)
	if err != nil {
		t.Fatal(err)
	}
	if got := d15.UsersOf("LES"); math.Abs(got-900*1.15) > 1e-9 {
		t.Errorf("LES users at 115%% = %g, want %g", got, 900*1.15)
	}
}

// TestPlacementErrorTexts pins every refusal's rendered text: the
// error carries a reason code and operands, and Error() must build the
// same bytes the eager Sprintf did.
func TestPlacementErrorTexts(t *testing.T) {
	mk := func(name string, pi float64, memMB int) cluster.Host {
		return cluster.Host{Name: name, Category: "t", PerformanceIndex: pi, CPUs: 1, MemoryMB: memMB}
	}
	cl := cluster.MustNew(mk("weak", 1.5, 4096), mk("mixed", 9, 4096), mk("excl", 9, 16384), mk("free", 9, 16384))
	cat := MustCatalog(
		&Service{Name: "app", Type: TypeInteractive, MemoryMBPerInstance: 1024},
		&Service{Name: "fat", Type: TypeInteractive, MemoryMBPerInstance: 3500},
		&Service{Name: "db", Type: TypeDatabase, Exclusive: true, MinPerfIndex: 5, MemoryMBPerInstance: 8192},
		&Service{Name: "db2", Type: TypeDatabase, Exclusive: true, MinPerfIndex: 5, MemoryMBPerInstance: 8192},
	)
	d := NewDeployment(cl, cat)
	for _, p := range [][2]string{{"app", "mixed"}, {"db", "excl"}} {
		if _, err := d.Start(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ svc, host, want string }{
		{"nope", "free", `service: cannot place "nope" on "free": unknown service`},
		{"app", "gone", `service: cannot place "app" on "gone": unknown host`},
		{"db", "weak", `service: cannot place "db" on "weak": performance index 1.5 below required minimum 5`},
		{"db2", "mixed", `service: cannot place "db2" on "mixed": service is exclusive but host is not empty`},
		{"db", "excl", `service: cannot place "db" on "excl": service is exclusive but host is not empty`},
		{"app", "excl", `service: cannot place "app" on "excl": host runs exclusive service "db"`},
		{"app", "mixed", `service: cannot place "app" on "mixed": host already runs an instance of this service`},
		{"fat", "mixed", `service: cannot place "fat" on "mixed": insufficient memory: 1024 MB used + 3500 MB needed > 4096 MB`},
	} {
		err := d.CanPlace(c.svc, c.host)
		if err == nil || err.Error() != c.want {
			t.Errorf("CanPlace(%s, %s) = %v\nwant %s", c.svc, c.host, err, c.want)
		}
	}
	if err := d.CanPlace("app", "free"); err != nil {
		t.Errorf("CanPlace(app, free) = %v, want nil", err)
	}
	// Start and Move hand the same refusal through.
	if _, err := d.Start("app", "excl"); err == nil || err.Error() != `service: cannot place "app" on "excl": host runs exclusive service "db"` {
		t.Errorf("Start refusal = %v", err)
	}
	if err := d.Move(d.InstancesOf("app")[0].ID, "weak"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Start("fat", "weak"); err == nil || err.Error() != `service: cannot place "fat" on "weak": insufficient memory: 1024 MB used + 3500 MB needed > 4096 MB` {
		t.Errorf("Start refusal after move = %v", err)
	}
}
