package designer

import (
	"strings"
	"testing"

	"autoglobe/internal/cluster"
	"autoglobe/internal/service"
)

func mk(name string, pi float64, memMB int) cluster.Host {
	return cluster.Host{
		Name: name, Category: "t", PerformanceIndex: pi, CPUs: 1,
		ClockMHz: 1000, CacheKB: 512, MemoryMB: memMB, SwapMB: memMB, TempMB: 1024,
	}
}

func TestDesignBalances(t *testing.T) {
	cl := cluster.MustNew(mk("a", 1, 4096), mk("b", 1, 4096), mk("c", 2, 8192))
	cat := service.MustCatalog(
		&service.Service{Name: "s1", Type: service.TypeInteractive, MemoryMBPerInstance: 1024},
		&service.Service{Name: "s2", Type: service.TypeInteractive, MemoryMBPerInstance: 1024},
		&service.Service{Name: "s3", Type: service.TypeInteractive, MemoryMBPerInstance: 1024},
		&service.Service{Name: "s4", Type: service.TypeInteractive, MemoryMBPerInstance: 1024},
	)
	plan, err := Design(cl, cat, []Demand{
		{Service: "s1", Instances: 1, UnitsPerInstance: 0.8},
		{Service: "s2", Instances: 1, UnitsPerInstance: 0.8},
		{Service: "s3", Instances: 1, UnitsPerInstance: 0.8},
		{Service: "s4", Instances: 1, UnitsPerInstance: 0.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Total demand 3.2 units over 4 units of capacity: a balanced plan
	// keeps every host at 80 %; the PI-2 host should carry two services.
	if plan.Makespan > 0.85 {
		t.Errorf("makespan = %.2f, want balanced ~0.8\n%s", plan.Makespan, plan)
	}
	onC := 0
	for _, hosts := range plan.Assignments {
		for _, h := range hosts {
			if h == "c" {
				onC++
			}
		}
	}
	if onC != 2 {
		t.Errorf("PI-2 host carries %d services, want 2\n%s", onC, plan)
	}
}

func TestDesignRespectsConstraints(t *testing.T) {
	cl := cluster.MustNew(mk("small", 1, 2048), mk("big", 9, 16384))
	cat := service.MustCatalog(
		&service.Service{Name: "db", Type: service.TypeDatabase, Exclusive: true,
			MinPerfIndex: 5, MemoryMBPerInstance: 8192},
		&service.Service{Name: "app", Type: service.TypeInteractive, MemoryMBPerInstance: 1024},
	)
	plan, err := Design(cl, cat, []Demand{
		{Service: "db", Instances: 1, UnitsPerInstance: 2},
		{Service: "app", Instances: 1, UnitsPerInstance: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Assignments["db"]; len(got) != 1 || got[0] != "big" {
		t.Fatalf("db placed on %v, want big (min perf index 5)", got)
	}
	// The database is exclusive, so app must land on the small host even
	// though big is less loaded.
	if got := plan.Assignments["app"]; len(got) != 1 || got[0] != "small" {
		t.Fatalf("app placed on %v, want small (big is exclusive)", got)
	}
}

func TestDesignOneInstancePerHost(t *testing.T) {
	cl := cluster.MustNew(mk("a", 1, 8192), mk("b", 1, 8192))
	cat := service.MustCatalog(
		&service.Service{Name: "s", Type: service.TypeInteractive, MemoryMBPerInstance: 1024})
	plan, err := Design(cl, cat, []Demand{{Service: "s", Instances: 2, UnitsPerInstance: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	hosts := plan.Assignments["s"]
	if len(hosts) != 2 || hosts[0] == hosts[1] {
		t.Fatalf("instances on %v, want two distinct hosts", hosts)
	}
	if _, err := Design(cl, cat, []Demand{{Service: "s", Instances: 3, UnitsPerInstance: 0.1}}); err == nil {
		t.Error("3 instances on 2 hosts accepted")
	}
}

func TestDesignMemoryLimit(t *testing.T) {
	cl := cluster.MustNew(mk("a", 1, 1024))
	cat := service.MustCatalog(
		&service.Service{Name: "fat", Type: service.TypeInteractive, MemoryMBPerInstance: 2048})
	if _, err := Design(cl, cat, []Demand{{Service: "fat", Instances: 1, UnitsPerInstance: 0.1}}); err == nil {
		t.Error("memory-infeasible plan accepted")
	}
}

func TestDesignErrors(t *testing.T) {
	cl := cluster.MustNew(mk("a", 1, 1024))
	cat := service.MustCatalog(&service.Service{Name: "s", Type: service.TypeBatch})
	if _, err := Design(cl, cat, []Demand{{Service: "ghost", Instances: 1}}); err == nil {
		t.Error("unknown service accepted")
	}
	if _, err := Design(cl, cat, []Demand{{Service: "s", Instances: 0}}); err == nil {
		t.Error("zero instances accepted")
	}
	if _, err := Design(cl, cat, []Demand{{Service: "s", Instances: 1, UnitsPerInstance: -1}}); err == nil {
		t.Error("negative demand accepted")
	}
}

// TestDesignPaperLandscape plans the paper's full installation from its
// peak demands and checks the plan is feasible and balanced well below
// the overload level.
func TestDesignPaperLandscape(t *testing.T) {
	cl := cluster.Paper()
	cat := service.PaperCatalog(service.FullMobility)
	users := service.PaperUsers()
	var demands []Demand
	for svc, u := range users {
		s, _ := cat.Get(svc)
		inst := map[string]int{"FI": 3, "LES": 4, "PP": 2, "HR": 1, "CRM": 1, "BW": 2}[svc]
		demands = append(demands, Demand{
			Service:          svc,
			Instances:        inst,
			UnitsPerInstance: u * 0.74 / float64(s.UsersPerUnit) / float64(inst),
		})
	}
	demands = append(demands,
		Demand{Service: "CI-ERP", Instances: 1, UnitsPerInstance: 0.45},
		Demand{Service: "CI-CRM", Instances: 1, UnitsPerInstance: 0.1},
		Demand{Service: "CI-BW", Instances: 1, UnitsPerInstance: 0.15},
		Demand{Service: "DB-ERP", Instances: 1, UnitsPerInstance: 2.2},
		Demand{Service: "DB-CRM", Instances: 1, UnitsPerInstance: 0.4},
		Demand{Service: "DB-BW", Instances: 1, UnitsPerInstance: 4.5},
	)
	plan, err := Design(cl, cat, demands)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Makespan > 0.8 {
		t.Errorf("paper landscape plan makespan %.2f, want < 0.8\n%s", plan.Makespan, plan)
	}
	// The plan applies cleanly to a fresh deployment.
	dep := service.NewDeployment(cl, cat)
	if err := plan.Apply(dep); err != nil {
		t.Fatal(err)
	}
	if s := plan.String(); !strings.Contains(s, "LES") {
		t.Error("plan rendering incomplete")
	}
}
