// missioncritical demonstrates the administrator-facing extension
// points: the landscape designer computing an optimized pre-assignment,
// and a service-specific rule base that makes the controller prefer
// powerful servers for a mission-critical service.
//
//	go run ./examples/missioncritical
package main

import (
	"fmt"
	"log"

	"autoglobe/internal/archive"
	"autoglobe/internal/cluster"
	"autoglobe/internal/controller"
	"autoglobe/internal/designer"
	"autoglobe/internal/fuzzy"
	"autoglobe/internal/monitor"
	"autoglobe/internal/service"
)

func main() {
	cl := cluster.MustNew(
		cluster.Host{Name: "blade1", Category: "blade", PerformanceIndex: 1, CPUs: 1,
			ClockMHz: 933, CacheKB: 512, MemoryMB: 2048, SwapMB: 2048, TempMB: 20480},
		cluster.Host{Name: "blade2", Category: "blade", PerformanceIndex: 2, CPUs: 2,
			ClockMHz: 933, CacheKB: 512, MemoryMB: 4096, SwapMB: 4096, TempMB: 20480},
		cluster.Host{Name: "big1", Category: "server", PerformanceIndex: 9, CPUs: 4,
			ClockMHz: 2800, CacheKB: 2048, MemoryMB: 12288, SwapMB: 12288, TempMB: 40960},
		cluster.Host{Name: "big2", Category: "server", PerformanceIndex: 9, CPUs: 4,
			ClockMHz: 2800, CacheKB: 2048, MemoryMB: 12288, SwapMB: 12288, TempMB: 40960},
	)
	all := map[service.Action]bool{}
	for _, a := range service.Actions() {
		all[a] = true
	}
	cat := service.MustCatalog(
		&service.Service{Name: "billing", Type: service.TypeInteractive, MinInstances: 1,
			Allowed: all, MemoryMBPerInstance: 1024, UsersPerUnit: 150, RequestWeight: 1},
		&service.Service{Name: "reporting", Type: service.TypeBatch, MinInstances: 1,
			Allowed: all, MemoryMBPerInstance: 1024, UsersPerUnit: 15, RequestWeight: 2},
	)

	// 1. Landscape designer: statically optimized pre-assignment.
	plan, err := designer.Design(cl, cat, []designer.Demand{
		{Service: "billing", Instances: 2, UnitsPerInstance: 0.9},
		{Service: "reporting", Instances: 1, UnitsPerInstance: 1.5},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan)
	dep := service.NewDeployment(cl, cat)
	if err := plan.Apply(dep); err != nil {
		log.Fatal(err)
	}

	// 2. Service-specific rule base: billing is mission-critical — on
	// overload it must always move to the most powerful hardware, never
	// just scale out.
	vocab := controller.ActionVocabulary()
	billingRules, err := fuzzy.NewRuleBase("billing-overloaded", vocab, fuzzy.MustParse(`
		IF instanceLoad IS high AND performanceIndex IS NOT high THEN scaleUp IS applicable
		IF instanceLoad IS high AND performanceIndex IS high THEN increasePriority IS applicable
	`))
	if err != nil {
		log.Fatal(err)
	}
	arch := archive.New(0)
	ctl, err := controller.New(controller.Config{
		ServiceRules: map[string]map[monitor.TriggerKind]*fuzzy.RuleBase{
			"billing": {monitor.ServiceOverloaded: billingRules},
		},
	}, dep, arch, controller.NewDeploymentExecutor(dep, controller.RebalanceUsers))
	if err != nil {
		log.Fatal(err)
	}

	// 3. Operations drifted: one billing instance ended up on the weak
	// blade1. Overload it: the mission-critical rule base demands a
	// scale-up, and the fuzzy server selection picks the idle powerful
	// server.
	inst := dep.InstancesOf("billing")[0]
	if err := dep.Move(inst.ID, "blade1"); err != nil {
		log.Fatal(err)
	}
	for m := 1290; m <= 1300; m++ {
		arch.Record(archive.HostEntity(inst.Host), archive.Sample{Minute: m, CPU: 0.92, Mem: 0.5})
		arch.Record(archive.InstanceEntity(inst.ID), archive.Sample{Minute: m, CPU: 0.90})
		arch.Record(archive.ServiceEntity("billing"), archive.Sample{Minute: m, CPU: 0.60})
		for _, h := range []string{"blade1", "blade2", "big1", "big2"} {
			if h != inst.Host {
				arch.Record(archive.HostEntity(h), archive.Sample{Minute: m, CPU: 0.10, Mem: 0.2})
			}
		}
	}
	d, err := ctl.HandleTrigger(monitor.Trigger{
		Kind: monitor.ServiceOverloaded, Entity: "billing",
		Minute: 1300, WatchedFrom: 1290, AvgLoad: 0.9,
	})
	if err != nil {
		log.Fatal(err)
	}
	if d == nil {
		fmt.Println("no decision — check the scenario")
		return
	}
	fmt.Printf("\nmission-critical overload: %s (applicability %.2f)\n", d, d.Applicability)
	fmt.Printf("target is the idle powerful server: %s (score %.2f)\n", d.TargetHost, d.HostScore)
}
