package agent

import (
	"context"
	"fmt"
	"testing"

	"autoglobe/internal/archive"
	"autoglobe/internal/controller"
	"autoglobe/internal/monitor"
	"autoglobe/internal/registry"
	"autoglobe/internal/service"
	"autoglobe/internal/wire"
)

// reportHost delivers a host's heartbeat for the minute, built from the
// model state, through its agent's reporter.
func reportHost(ctx context.Context, p *Plane, dep *service.Deployment, host string, minute int, cpu float64) error {
	rep, ok := p.Reporter(host)
	if !ok {
		return fmt.Errorf("no agent attached for host %q", host)
	}
	rep.Begin(minute, cpu, 0)
	for _, inst := range dep.InstancesOn(host) {
		rep.Sample(inst.ID, inst.Service, cpu)
	}
	return rep.Send(ctx)
}

// TestCoordinatorHeartbeatToTrigger drives the full monitoring half of
// the plane: heartbeats stream over the transport into the unchanged
// monitor pipeline, survive the watchTime, and come out as confirmed
// triggers.
func TestCoordinatorHeartbeatToTrigger(t *testing.T) {
	dep := testDeployment(t)
	tr := wire.NewLoopback()
	params := monitor.Params{OverloadThreshold: 0.70, OverloadWatch: 2,
		IdleThresholdBase: 0.125, IdleWatch: 20}
	lms, err := monitor.NewSystem(params, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlane(PlaneConfig{Transport: tr, Dispatch: fastDispatch()}, dep, lms)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for minute := 0; minute <= 2; minute++ {
		for _, host := range dep.Cluster().Names() {
			cpu := 0.4
			if host == "h1" {
				cpu = 0.9 // sustained overload on h1 and its instance
			}
			if err := reportHost(ctx, p, dep, host, minute, cpu); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Coordinator().ObserveServices(minute); err != nil {
			t.Fatal(err)
		}
	}
	triggers := p.Coordinator().TakeTriggers()
	var kinds []monitor.TriggerKind
	for _, tg := range triggers {
		kinds = append(kinds, tg.Kind)
	}
	if len(triggers) != 1 || triggers[0].Kind != monitor.ServerOverloaded || triggers[0].Entity != "h1" {
		t.Fatalf("triggers = %v (%v), want exactly serverOverloaded(h1)", triggers, kinds)
	}
	// The per-instance samples reached the archive for the controller's
	// instanceLoad variable.
	id := dep.InstancesOn("h1")[0].ID
	if _, ok := lms.Archive().Latest(archive.InstanceEntity(id)); !ok {
		t.Fatalf("no archived samples for instance %s", id)
	}
	if p.Coordinator().Heartbeats() != 9 {
		t.Fatalf("ingested %d heartbeats, want 9", p.Coordinator().Heartbeats())
	}
}

// TestAgentHelloJoin drives the join handshake: a booting agent daemon
// announces itself, the coordinator's OnHello hook sees the host's
// attributes, and a rejected hello surfaces as an error on the agent.
func TestAgentHelloJoin(t *testing.T) {
	dep := testDeployment(t)
	tr := wire.NewLoopback()
	lms, err := monitor.NewSystem(monitor.PaperParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlane(PlaneConfig{Transport: tr, Dispatch: fastDispatch()}, dep, lms)
	if err != nil {
		t.Fatal(err)
	}
	var joined []wire.Hello
	p.Coordinator().OnHello = func(h wire.Hello) error {
		joined = append(joined, h)
		return nil
	}
	a := agentOf(t, p, "h1")
	ctx := context.Background()
	if err := a.SendHello(ctx, wire.Hello{PerformanceIndex: 1, MemoryMB: 4096, Addr: "http://127.0.0.1:9999"}); err != nil {
		t.Fatal(err)
	}
	if len(joined) != 1 || joined[0].Host != "h1" || joined[0].Addr != "http://127.0.0.1:9999" {
		t.Fatalf("joined = %+v, want one hello from h1 with its address", joined)
	}
	// A full pool refuses the join; the daemon sees the rejection.
	p.Coordinator().OnHello = func(wire.Hello) error {
		return fmt.Errorf("pool full")
	}
	if err := a.SendHello(ctx, wire.Hello{}); err == nil {
		t.Fatal("rejected hello reported success")
	}
}

// TestDeadHostDemotion is the dead-host path of the issue: a host stops
// answering heartbeats and probes, the hysteresis liveness detector
// confirms it dead, the federation demotes it (its service IPs are
// unbound so the failover router stops handing out its addresses), and
// the controller restarts the lost instances elsewhere.
func TestDeadHostDemotion(t *testing.T) {
	dep := testDeployment(t)
	tr := wire.NewLoopback()
	lms, err := monitor.NewSystem(monitor.PaperParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	live := monitor.NewLivenessHysteresis(1, 2, 2)
	p, err := NewPlane(PlaneConfig{Transport: tr, Dispatch: fastDispatch(), Liveness: live}, dep, lms)
	if err != nil {
		t.Fatal(err)
	}

	// ServiceGlobe substrate: every host joins the federation and the
	// current allocation is registered (service IPs bound).
	fed := registry.NewFederation()
	for _, h := range dep.Cluster().Names() {
		if err := fed.Join(h); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := registry.SyncDeployment(fed, dep); err != nil {
		t.Fatal(err)
	}
	router := registry.NewRouter(fed)

	inner := controller.NewDeploymentExecutor(dep, controller.StickyUsers)
	mirror, err := registry.NewMirror(fed, dep, inner)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := controller.New(controller.Config{}, dep, lms.Archive(), p.Executor(mirror))
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	report := func(minute int, hosts ...string) {
		t.Helper()
		for _, h := range hosts {
			if err := reportHost(ctx, p, dep, h, minute, 0.3); err != nil {
				t.Fatal(err)
			}
		}
	}
	report(0, "h1", "h2", "h3")

	// h2 is partitioned: heartbeats and probes both vanish.
	tr.Isolate("h2")
	var dead []string
	for minute := 1; minute <= 4 && len(dead) == 0; minute++ {
		report(minute, "h1", "h3")
		if err := reportHost(ctx, p, dep, "h2", minute, 0.3); err == nil {
			t.Fatal("heartbeat from the partitioned host got through")
		}
		dead, _ = p.Coordinator().CheckLiveness(ctx, minute)
	}
	if len(dead) != 1 || dead[0] != "h2" {
		t.Fatalf("dead = %v, want [h2] after hysteresis", dead)
	}

	// Demote: unbind the dead host's service IPs and restart the lost
	// instances elsewhere.
	lostID := dep.InstancesOn("h2")[0].ID
	lost, err := fed.DemoteHost("h2")
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != 1 || lost[0].InstanceID != lostID {
		t.Fatalf("demotion lost %v, want [%s]", lost, lostID)
	}
	// The failover router immediately stops handing out h2.
	for i := 0; i < 4; i++ {
		ep, err := router.Route("app")
		if err != nil {
			t.Fatal(err)
		}
		if ep.Host == "h2" {
			t.Fatal("router still routes to the demoted host")
		}
	}

	// Model side: the host's instances are gone with it.
	var lostServices []string
	for _, inst := range dep.InstancesOn("h2") {
		lostServices = append(lostServices, inst.Service)
		if err := dep.Stop(inst.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := dep.Cluster().Remove("h2"); err != nil {
		t.Fatal(err)
	}
	p.Coordinator().Forget("h2")

	decisions, err := ctl.HandleHostFailure("h2", lostServices, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 1 || decisions[0] == nil {
		t.Fatalf("decisions = %v, want one executed restart", decisions)
	}
	restartHost := decisions[0].TargetHost
	if restartHost == "h2" {
		t.Fatal("restart targeted the dead host")
	}
	// The restart went through the dispatching executor: the target's
	// agent runs the replacement, and the federation serves its address.
	replacement := dep.InstancesOn(restartHost)
	a := agentOf(t, p, restartHost)
	var found bool
	for _, inst := range replacement {
		if inst.Service == "app" && a.Running(inst.ID) {
			found = true
		}
	}
	if !found {
		t.Fatalf("agent of %s does not run the restarted instance", restartHost)
	}
	if eps := fed.Lookup("app"); len(eps) != 2 {
		t.Fatalf("federation lists %d app endpoints, want 2 after restart", len(eps))
	}
}
