// operations is a day-in-the-life tour of AutoGlobe's operator surface:
// the controller runs in semi-automatic mode, so a decision waits for
// the administrator, who reads why it was proposed and approves it; and
// a failing binding layer shows the transactional executor rolling an
// action back cleanly.
//
//	go run ./examples/operations
package main

import (
	"errors"
	"fmt"
	"log"

	"autoglobe/internal/archive"
	"autoglobe/internal/cluster"
	"autoglobe/internal/console"
	"autoglobe/internal/controller"
	"autoglobe/internal/monitor"
	"autoglobe/internal/service"
)

func main() {
	// Landscape: two blades and a strong server, one interactive service.
	cl := cluster.MustNew(
		cluster.Host{Name: "blade1", Category: "blade", PerformanceIndex: 1, CPUs: 1,
			ClockMHz: 933, CacheKB: 512, MemoryMB: 2048, SwapMB: 2048, TempMB: 20480},
		cluster.Host{Name: "blade2", Category: "blade", PerformanceIndex: 2, CPUs: 2,
			ClockMHz: 933, CacheKB: 512, MemoryMB: 4096, SwapMB: 4096, TempMB: 20480},
		cluster.Host{Name: "big1", Category: "server", PerformanceIndex: 9, CPUs: 4,
			ClockMHz: 2800, CacheKB: 2048, MemoryMB: 12288, SwapMB: 12288, TempMB: 20480},
	)
	allowed := map[service.Action]bool{}
	for _, a := range service.Actions() {
		allowed[a] = true
	}
	cat := service.MustCatalog(&service.Service{
		Name: "orders", Type: service.TypeInteractive, MinInstances: 1,
		Allowed: allowed, MemoryMBPerInstance: 1024, UsersPerUnit: 150, RequestWeight: 1,
	})
	dep := service.NewDeployment(cl, cat)
	inst, err := dep.Start("orders", "blade1")
	if err != nil {
		log.Fatal(err)
	}
	inst.Users = 140

	// Controller in semi-automatic mode: decisions wait for a human.
	exec := controller.NewDeploymentExecutor(dep, controller.RebalanceUsers)
	arch := archive.New(0)
	ctl, err := controller.New(controller.Config{Mode: controller.SemiAutomatic}, dep, arch, exec)
	if err != nil {
		log.Fatal(err)
	}

	// A sustained overload is confirmed; the controller proposes a
	// remedy but waits for confirmation.
	for m := 0; m <= 10; m++ {
		arch.Record(archive.HostEntity("blade1"), archive.Sample{Minute: m, CPU: 0.92, Mem: 0.5})
		arch.Record(archive.HostEntity("blade2"), archive.Sample{Minute: m, CPU: 0.15, Mem: 0.2})
		arch.Record(archive.HostEntity("big1"), archive.Sample{Minute: m, CPU: 0.05, Mem: 0.2})
		arch.Record(archive.InstanceEntity(inst.ID), archive.Sample{Minute: m, CPU: 0.9})
		arch.Record(archive.ServiceEntity("orders"), archive.Sample{Minute: m, CPU: 0.55})
	}
	if _, err := ctl.HandleTrigger(monitor.Trigger{
		Kind: monitor.ServiceOverloaded, Entity: "orders",
		Minute: 10, WatchedFrom: 0, AvgLoad: 0.9,
	}); err != nil {
		log.Fatal(err)
	}
	pending := ctl.Pending()
	fmt.Printf("pending decision: %s\n", pending[0])
	fmt.Println("why the controller proposes it:")
	fmt.Println(pending[0].Explain())

	// The administrator confirms; the action executes through the
	// transactional executor.
	d, err := ctl.Approve(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("approved: %s executed, %d decisions still waiting\n", d, len(ctl.Pending()))

	// Later, the binding layer has an outage: the transactional
	// executor rolls the whole action back instead of leaving the
	// landscape half-administered.
	exec.PostStep = func(*controller.Decision) error {
		return errors.New("binding layer outage")
	}
	err = exec.Execute(&controller.Decision{
		Trigger: monitor.Trigger{Minute: 60}, Action: service.ActionScaleDown,
		Service: "orders", InstanceID: inst.ID, TargetHost: "blade2", SourceHost: d.TargetHost,
	})
	fmt.Printf("scale-down during outage: %v\n", err)
	now, _ := dep.Instance(inst.ID)
	fmt.Printf("instance still on %s, landscape consistent: %v\n", now.Host, dep.Validate() == nil)

	// The controller's message log records what happened.
	fmt.Println(console.MessageView(ctl.Events(), 10))
}
