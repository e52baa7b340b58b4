package agent

import (
	"errors"
	"testing"

	"autoglobe/internal/controller"
	"autoglobe/internal/monitor"
	"autoglobe/internal/service"
	"autoglobe/internal/wire"
)

// plumb builds a deployment with an attached plane over a loopback,
// returning both plus the wrapped executor.
func plumb(t *testing.T) (*service.Deployment, *wire.Loopback, *Plane, *DispatchExecutor) {
	t.Helper()
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
	inner := controller.NewDeploymentExecutor(dep, controller.StickyUsers)
	return dep, tr, p, p.Executor(inner)
}

func agentOf(t *testing.T, p *Plane, host string) *Agent {
	t.Helper()
	a, ok := p.Agent(host)
	if !ok {
		t.Fatalf("no agent for %s", host)
	}
	return a
}

func TestDispatchExecutorScaleOut(t *testing.T) {
	dep, _, p, exec := plumb(t)
	d := &controller.Decision{Action: service.ActionScaleOut, Service: "app", TargetHost: "h3"}
	if err := exec.Execute(d); err != nil {
		t.Fatal(err)
	}
	// Model and host agree on the new instance.
	if got := dep.CountOn("h3"); got != 1 {
		t.Fatalf("model: %d instances on h3, want 1", got)
	}
	id := dep.InstancesOn("h3")[0].ID
	if !running(agentOf(t, p, "h3"), id) {
		t.Fatalf("agent h3 does not run %s", id)
	}
}

func TestDispatchExecutorMove(t *testing.T) {
	dep, _, p, exec := plumb(t)
	id := dep.InstancesOn("h1")[0].ID
	d := &controller.Decision{Action: service.ActionMove, Service: "app",
		InstanceID: id, SourceHost: "h1", TargetHost: "h3"}
	if err := exec.Execute(d); err != nil {
		t.Fatal(err)
	}
	if running(agentOf(t, p, "h1"), id) {
		t.Fatal("source agent still runs the moved instance")
	}
	if !running(agentOf(t, p, "h3"), id) {
		t.Fatal("target agent does not run the moved instance")
	}
	inst, _ := dep.Instance(id)
	if inst.Host != "h3" {
		t.Fatalf("model host = %s, want h3", inst.Host)
	}
}

// TestDispatchExecutorCompensatesPartialMove is the partial compound
// failure scenario of the issue: the unbind on the source host
// succeeds, the bind on the target host is rejected — the compensation
// must re-bind the instance on the source, leaving every process table
// and the model exactly as before.
func TestDispatchExecutorCompensatesPartialMove(t *testing.T) {
	dep, _, p, exec := plumb(t)
	id := dep.InstancesOn("h1")[0].ID
	agentOf(t, p, "h3").FailNext(wire.OpBind, "bind script failed: no free service IP slot")

	d := &controller.Decision{Action: service.ActionMove, Service: "app",
		InstanceID: id, SourceHost: "h1", TargetHost: "h3"}
	err := exec.Execute(d)
	if err == nil {
		t.Fatal("move succeeded despite rejected bind")
	}
	var nack *NackError
	if !errors.As(err, &nack) {
		t.Fatalf("err = %v, want a NackError cause", err)
	}
	// The source host got the instance back, the target never had it,
	// and the model never changed.
	if !running(agentOf(t, p, "h1"), id) {
		t.Fatal("compensation did not re-bind the instance on the source host")
	}
	if running(agentOf(t, p, "h3"), id) {
		t.Fatal("target host kept the instance despite the nack")
	}
	if inst, _ := dep.Instance(id); inst.Host != "h1" {
		t.Fatalf("model host = %s, want h1 (unchanged)", inst.Host)
	}
}

// TestDispatchExecutorCompensatesUnreachableTarget partitions the
// target host instead of rejecting the op: the bind times out after
// the retry budget and the executor compensates over the still-healthy
// source link.
func TestDispatchExecutorCompensatesUnreachableTarget(t *testing.T) {
	dep, tr, p, exec := plumb(t)
	id := dep.InstancesOn("h1")[0].ID
	tr.Isolate("h3")

	d := &controller.Decision{Action: service.ActionMove, Service: "app",
		InstanceID: id, SourceHost: "h1", TargetHost: "h3"}
	if err := exec.Execute(d); err == nil {
		t.Fatal("move succeeded with the target partitioned")
	}
	if !running(agentOf(t, p, "h1"), id) {
		t.Fatal("compensation did not restore the source host")
	}
	if inst, _ := dep.Instance(id); inst.Host != "h1" {
		t.Fatalf("model host = %s, want h1", inst.Host)
	}
	if st := p.Dispatcher().Stats(); st.Retries == 0 || st.Expired != 1 {
		t.Fatalf("stats = %+v, want retries and exactly one expired dispatch", st)
	}
}

// TestDispatchExecutorModelFailureRollsBackHosts exercises the inverse
// partial failure: every host acknowledged, but the model apply fails
// (the controller will fall back to another host). The hosts must be
// rolled back and the model error must surface verbatim, exactly as
// the in-process executor would have reported it.
func TestDispatchExecutorModelFailureRollsBackHosts(t *testing.T) {
	dep, _, p, exec := plumb(t)
	// h3 cannot take the instance: fill its memory in the model only.
	// 4096 MB / 256 MB per instance: block with an exclusive-ish trick —
	// simplest is an inner executor that always fails.
	inner := failingExecutor{}
	exec = NewDispatchExecutor(dep, inner, p.Dispatcher())

	d := &controller.Decision{Action: service.ActionScaleOut, Service: "app", TargetHost: "h3"}
	err := exec.Execute(d)
	if err == nil || err.Error() != "model says no" {
		t.Fatalf("err = %v, want the inner error verbatim", err)
	}
	id := dep.NextID("app")
	if running(agentOf(t, p, "h3"), id) {
		t.Fatal("host kept the instance after the model rejected the decision")
	}
}

type failingExecutor struct{}

func (failingExecutor) Execute(*controller.Decision) error { return errors.New("model says no") }

func TestOpsForStopIsMultiHost(t *testing.T) {
	dep := testDeployment(t)
	ops, err := OpsFor(dep, &controller.Decision{Action: service.ActionStop, Service: "app"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 {
		t.Fatalf("%d ops, want 2 (one per instance)", len(ops))
	}
	hosts := map[string]bool{}
	for _, p := range ops {
		if p.Do.Op != wire.OpStop || p.Undo.Op != wire.OpStart {
			t.Fatalf("op pair = %+v, want stop/start", p)
		}
		hosts[p.Do.Host] = true
	}
	if !hosts["h1"] || !hosts["h2"] {
		t.Fatalf("stop ops target %v, want h1 and h2", hosts)
	}
}
