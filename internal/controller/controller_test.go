package controller

import (
	"errors"
	"testing"

	"autoglobe/internal/archive"
	"autoglobe/internal/cluster"
	"autoglobe/internal/fuzzy"
	"autoglobe/internal/monitor"
	"autoglobe/internal/service"
	"autoglobe/internal/tsdb"
)

// testbed wires a small landscape: two weak blades, two medium blades,
// one powerful server, an app service with full mobility, and a static
// exclusive database on the powerful server.
type testbed struct {
	dep  *service.Deployment
	arch *archive.Archive
	ctl  *Controller
	exec *DeploymentExecutor
}

func allActions() map[service.Action]bool {
	m := make(map[service.Action]bool)
	for _, a := range service.Actions() {
		m[a] = true
	}
	return m
}

func host(name string, pi float64, memMB int) cluster.Host {
	cpus := int(pi)
	if cpus < 1 {
		cpus = 1
	}
	return cluster.Host{
		Name: name, Category: "test", PerformanceIndex: pi, CPUs: cpus,
		ClockMHz: 1000, CacheKB: 512, MemoryMB: memMB, SwapMB: memMB, TempMB: 51200,
	}
}

func newTestbed(t *testing.T, cfg Config) *testbed {
	t.Helper()
	cl := cluster.MustNew(
		host("weak1", 1, 2048), host("weak2", 1, 2048),
		host("mid1", 2, 4096), host("mid2", 2, 4096),
		host("big1", 9, 12288), host("big2", 9, 12288),
	)
	cat := service.MustCatalog(
		&service.Service{
			Name: "app", Type: service.TypeInteractive, MinInstances: 1,
			Allowed: allActions(), MemoryMBPerInstance: 1024,
			UsersPerUnit: 150, RequestWeight: 1,
		},
		&service.Service{
			Name: "db", Type: service.TypeDatabase, MinInstances: 1, MaxInstances: 1,
			Exclusive: true, MinPerfIndex: 5, MemoryMBPerInstance: 8192,
			UsersPerUnit: 150, RequestWeight: 1,
		},
	)
	dep := service.NewDeployment(cl, cat)
	arch := archive.New(0)
	exec := NewDeploymentExecutor(dep, RebalanceUsers)
	ctl, err := New(cfg, dep, arch, exec)
	if err != nil {
		t.Fatal(err)
	}
	return &testbed{dep: dep, arch: arch, ctl: ctl, exec: exec}
}

// record fills the archive for minutes 0..10 with fixed loads.
func (tb *testbed) record(t *testing.T, entity string, cpu, mem float64) {
	t.Helper()
	for m := 0; m <= 10; m++ {
		if err := tb.arch.Record(entity, archive.Sample{Minute: m, CPU: cpu, Mem: mem}); err != nil {
			t.Fatal(err)
		}
	}
}

func trigger(kind monitor.TriggerKind, entity string) monitor.Trigger {
	return monitor.Trigger{Kind: kind, Entity: entity, Minute: 10, WatchedFrom: 0, AvgLoad: 0.9}
}

func TestRuleCountNearPaper(t *testing.T) {
	n := RuleCount()
	if n < 35 || n > 60 {
		t.Errorf("default rule bases have %d rules; the paper reports about 40", n)
	}
}

func TestDefaultRuleBasesValid(t *testing.T) {
	for kind, rb := range DefaultActionRules() {
		if rb.Len() == 0 {
			t.Errorf("%s rule base is empty", kind)
		}
	}
	for a, rb := range DefaultSelectionRules() {
		if rb.Len() == 0 {
			t.Errorf("selection rule base for %s is empty", a)
		}
	}
}

// TestScaleUpPreferredOnWeakHost reproduces the paper's central example:
// an overloaded service on a weak host is scaled up rather than out.
func TestScaleUpPreferredOnWeakHost(t *testing.T) {
	tb := newTestbed(t, Config{})
	inst, err := tb.dep.Start("app", "weak1")
	if err != nil {
		t.Fatal(err)
	}
	tb.record(t, archive.HostEntity("weak1"), 0.90, 0.4)
	tb.record(t, archive.InstanceEntity(inst.ID), 0.85, 0.4)
	tb.record(t, archive.ServiceEntity("app"), 0.55, 0.4)
	tb.record(t, archive.HostEntity("mid1"), 0.10, 0.1)
	tb.record(t, archive.HostEntity("mid2"), 0.10, 0.1)
	tb.record(t, archive.HostEntity("big1"), 0.05, 0.1)
	tb.record(t, archive.HostEntity("big2"), 0.05, 0.1)
	tb.record(t, archive.HostEntity("weak2"), 0.10, 0.1)

	cands, err := tb.ctl.SelectActions(trigger(monitor.ServiceOverloaded, "app"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates for overloaded service on weak host")
	}
	if cands[0].Action != service.ActionScaleUp {
		t.Errorf("top candidate = %s (%.2f), want scaleUp", cands[0].Action, cands[0].Applicability)
	}

	d, err := tb.ctl.HandleTrigger(trigger(monitor.ServiceOverloaded, "app"))
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("no decision")
	}
	if d.Action != service.ActionScaleUp {
		t.Fatalf("decision = %s, want scaleUp", d.Action)
	}
	dst, _ := tb.dep.Cluster().Host(d.TargetHost)
	if dst.PerformanceIndex <= 1 {
		t.Errorf("scale-up target %s has PI %g, want > 1", d.TargetHost, dst.PerformanceIndex)
	}
	// The instance actually moved.
	moved, _ := tb.dep.Instance(inst.ID)
	if moved.Host != d.TargetHost {
		t.Errorf("instance on %s after scale-up, want %s", moved.Host, d.TargetHost)
	}
}

// TestScaleOutPreferredOnPowerfulHost: the same overload on an already
// powerful host starts an additional instance instead.
func TestScaleOutPreferredOnPowerfulHost(t *testing.T) {
	tb := newTestbed(t, Config{})
	inst, err := tb.dep.Start("app", "big1")
	if err != nil {
		t.Fatal(err)
	}
	tb.record(t, archive.HostEntity("big1"), 0.90, 0.4)
	tb.record(t, archive.InstanceEntity(inst.ID), 0.85, 0.4)
	tb.record(t, archive.ServiceEntity("app"), 0.85, 0.4)
	for _, h := range []string{"weak1", "weak2", "mid1", "mid2", "big2"} {
		tb.record(t, archive.HostEntity(h), 0.10, 0.1)
	}

	d, err := tb.ctl.HandleTrigger(trigger(monitor.ServiceOverloaded, "app"))
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.Action != service.ActionScaleOut {
		t.Fatalf("decision = %v, want scaleOut", d)
	}
	if tb.dep.CountOf("app") != 2 {
		t.Errorf("app instances = %d after scale-out, want 2", tb.dep.CountOf("app"))
	}
}

// TestConstraintFiltering: a service that only supports scale-in/out (the
// constrained-mobility application server) never yields move/scale-up
// candidates, even in situations where those would score highest.
func TestConstraintFiltering(t *testing.T) {
	cl := cluster.MustNew(host("weak1", 1, 2048), host("mid1", 2, 4096), host("big1", 9, 12288))
	cat := service.MustCatalog(&service.Service{
		Name: "app", Type: service.TypeInteractive, MinInstances: 1,
		Allowed: map[service.Action]bool{
			service.ActionScaleIn: true, service.ActionScaleOut: true,
		},
		MemoryMBPerInstance: 1024, UsersPerUnit: 150, RequestWeight: 1,
	})
	dep := service.NewDeployment(cl, cat)
	arch := archive.New(0)
	ctl, err := New(Config{}, dep, arch, NewDeploymentExecutor(dep, StickyUsers))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := dep.Start("app", "weak1")
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m <= 10; m++ {
		arch.Record(archive.HostEntity("weak1"), archive.Sample{Minute: m, CPU: 0.9, Mem: 0.4})
		arch.Record(archive.InstanceEntity(inst.ID), archive.Sample{Minute: m, CPU: 0.85, Mem: 0.4})
		arch.Record(archive.ServiceEntity("app"), archive.Sample{Minute: m, CPU: 0.85, Mem: 0.4})
		arch.Record(archive.HostEntity("mid1"), archive.Sample{Minute: m, CPU: 0.1, Mem: 0.1})
		arch.Record(archive.HostEntity("big1"), archive.Sample{Minute: m, CPU: 0.1, Mem: 0.1})
	}
	cands, err := ctl.SelectActions(trigger(monitor.ServiceOverloaded, "app"))
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range cands {
		if cand.Action == service.ActionScaleUp || cand.Action == service.ActionMove {
			t.Errorf("unsupported action %s offered for constrained service", cand.Action)
		}
	}
	d, err := ctl.HandleTrigger(trigger(monitor.ServiceOverloaded, "app"))
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.Action != service.ActionScaleOut {
		t.Fatalf("decision = %v, want scaleOut (the only supported remedy)", d)
	}
}

// TestServerSelectionPrefersIdleHost: among equivalent targets the
// server-selection controller picks the lightly loaded one.
func TestServerSelectionPrefersIdleHost(t *testing.T) {
	tb := newTestbed(t, Config{})
	inst, err := tb.dep.Start("app", "weak1")
	if err != nil {
		t.Fatal(err)
	}
	tb.record(t, archive.HostEntity("weak1"), 0.90, 0.4)
	tb.record(t, archive.InstanceEntity(inst.ID), 0.85, 0.4)
	tb.record(t, archive.ServiceEntity("app"), 0.85, 0.4)
	tb.record(t, archive.HostEntity("mid1"), 0.60, 0.5) // busy
	tb.record(t, archive.HostEntity("mid2"), 0.05, 0.1) // idle
	tb.record(t, archive.HostEntity("big1"), 0.65, 0.5)
	tb.record(t, archive.HostEntity("big2"), 0.60, 0.5)
	tb.record(t, archive.HostEntity("weak2"), 0.10, 0.1)

	hostName, score := tb.ctl.selectHost(service.ActionScaleUp, "app", inst.ID, 10, nil)
	if hostName != "mid2" {
		t.Errorf("selected %s (score %.2f), want idle mid2", hostName, score)
	}
}

// TestProtectionMode: after an executed action the involved service and
// hosts are protected; a follow-up trigger within the window is ignored
// and the protected host is not selected as a target.
func TestProtectionMode(t *testing.T) {
	tb := newTestbed(t, Config{})
	inst, err := tb.dep.Start("app", "weak1")
	if err != nil {
		t.Fatal(err)
	}
	tb.record(t, archive.HostEntity("weak1"), 0.90, 0.4)
	tb.record(t, archive.InstanceEntity(inst.ID), 0.85, 0.4)
	tb.record(t, archive.ServiceEntity("app"), 0.85, 0.4)
	for _, h := range []string{"weak2", "mid1", "mid2", "big1", "big2"} {
		tb.record(t, archive.HostEntity(h), 0.10, 0.1)
	}
	d, err := tb.ctl.HandleTrigger(trigger(monitor.ServiceOverloaded, "app"))
	if err != nil || d == nil {
		t.Fatalf("first trigger: d=%v err=%v", d, err)
	}
	if !tb.ctl.ServiceProtected("app", 11) {
		t.Error("service not protected after action")
	}
	if !tb.ctl.HostProtected(d.TargetHost, 11) {
		t.Error("target host not protected after action")
	}
	if tb.ctl.ServiceProtected("app", 10+DefaultProtectionMinutes) {
		t.Error("protection must expire after 30 minutes")
	}
	// Within protection: trigger ignored.
	tr2 := trigger(monitor.ServiceOverloaded, "app")
	tr2.Minute = 15
	d2, err := tb.ctl.HandleTrigger(tr2)
	if err != nil {
		t.Fatal(err)
	}
	if d2 != nil {
		t.Errorf("trigger during protection produced decision %v", d2)
	}
}

func TestProtectionDisabled(t *testing.T) {
	tb := newTestbed(t, Config{ProtectionMinutes: -1})
	inst, _ := tb.dep.Start("app", "weak1")
	tb.record(t, archive.HostEntity("weak1"), 0.9, 0.4)
	tb.record(t, archive.InstanceEntity(inst.ID), 0.85, 0.4)
	tb.record(t, archive.ServiceEntity("app"), 0.85, 0.4)
	for _, h := range []string{"weak2", "mid1", "mid2", "big1", "big2"} {
		tb.record(t, archive.HostEntity(h), 0.1, 0.1)
	}
	d, err := tb.ctl.HandleTrigger(trigger(monitor.ServiceOverloaded, "app"))
	if err != nil || d == nil {
		t.Fatalf("d=%v err=%v", d, err)
	}
	if tb.ctl.ServiceProtected("app", 11) {
		t.Error("protection disabled but service protected")
	}
}

// TestIdleScaleIn: an idle service with clearly too many instances is
// scaled in and the users of the stopped instance reconnect elsewhere.
// (With only a modest surplus the conservative idle rules deliberately
// keep instances alive for the next morning — see TestIdleKeepsModestPool.)
func TestIdleScaleIn(t *testing.T) {
	tb := newTestbed(t, Config{})
	hosts := []string{"weak1", "weak2", "mid1", "mid2", "big1", "big2"}
	var insts []*service.Instance
	for _, h := range hosts {
		inst, err := tb.dep.Start("app", h)
		if err != nil {
			t.Fatal(err)
		}
		inst.Users = 10
		insts = append(insts, inst)
	}
	for _, h := range hosts {
		tb.record(t, archive.HostEntity(h), 0.05, 0.1)
	}
	for _, inst := range insts {
		tb.record(t, archive.InstanceEntity(inst.ID), 0.04, 0.1)
	}
	tb.record(t, archive.ServiceEntity("app"), 0.04, 0.1)

	d, err := tb.ctl.HandleTrigger(trigger(monitor.ServiceIdle, "app"))
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.Action != service.ActionScaleIn {
		t.Fatalf("decision = %v, want scaleIn", d)
	}
	if got := tb.dep.CountOf("app"); got != 5 {
		t.Errorf("app instances after scale-in = %d, want 5", got)
	}
	if got := tb.dep.UsersOf("app"); got != 60 {
		t.Errorf("users after scale-in = %g, want 60 (no user lost)", got)
	}
}

// TestIdleKeepsModestPool: a service with a small instance pool is NOT
// shrunk when everything is idle — the paper's controller avoids
// stopping too many instances so the morning load can be distributed.
func TestIdleKeepsModestPool(t *testing.T) {
	tb := newTestbed(t, Config{})
	i1, _ := tb.dep.Start("app", "weak1")
	i2, _ := tb.dep.Start("app", "mid1")
	i3, _ := tb.dep.Start("app", "mid2")
	for _, h := range []string{"weak1", "weak2", "mid1", "mid2", "big1", "big2"} {
		tb.record(t, archive.HostEntity(h), 0.05, 0.1)
	}
	for _, inst := range []*service.Instance{i1, i2, i3} {
		tb.record(t, archive.InstanceEntity(inst.ID), 0.04, 0.1)
	}
	tb.record(t, archive.ServiceEntity("app"), 0.04, 0.1)
	cands, err := tb.ctl.SelectActions(trigger(monitor.ServiceIdle, "app"))
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range cands {
		if cand.Action == service.ActionScaleIn {
			t.Error("scale-in offered for a 3-instance idle pool on idle hosts")
		}
	}
}

// TestScaleInRespectsMinimum: with instances at the minimum, scale-in is
// never offered.
func TestScaleInRespectsMinimum(t *testing.T) {
	tb := newTestbed(t, Config{})
	inst, _ := tb.dep.Start("app", "weak1") // MinInstances: 1
	for _, h := range []string{"weak1", "weak2", "mid1", "mid2", "big1", "big2"} {
		tb.record(t, archive.HostEntity(h), 0.05, 0.1)
	}
	tb.record(t, archive.InstanceEntity(inst.ID), 0.04, 0.1)
	tb.record(t, archive.ServiceEntity("app"), 0.04, 0.1)
	cands, err := tb.ctl.SelectActions(trigger(monitor.ServiceIdle, "app"))
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range cands {
		if cand.Action == service.ActionScaleIn {
			t.Error("scale-in offered at minimum instance count")
		}
	}
}

// TestNoActionAlertsAdministrator: when nothing is applicable the
// controller logs an administrator alert (Section 4.3).
func TestNoActionAlertsAdministrator(t *testing.T) {
	tb := newTestbed(t, Config{})
	inst, _ := tb.dep.Start("app", "weak1")
	// Idle service at its minimum instance count that supports nothing
	// useful: also make every other host protected so no target exists.
	tb.record(t, archive.HostEntity("weak1"), 0.9, 0.4)
	tb.record(t, archive.InstanceEntity(inst.ID), 0.85, 0.4)
	tb.record(t, archive.ServiceEntity("app"), 0.85, 0.4)
	for _, h := range []string{"weak2", "mid1", "mid2", "big1", "big2"} {
		tb.record(t, archive.HostEntity(h), 0.1, 0.1)
		tb.ctl.protHost[h] = 1000
	}
	d, err := tb.ctl.HandleTrigger(trigger(monitor.ServiceOverloaded, "app"))
	if err != nil {
		t.Fatal(err)
	}
	if d != nil {
		t.Fatalf("unexpected decision %v", d)
	}
	events := tb.ctl.Events()
	found := false
	for _, e := range events {
		if e.Decision == nil && e.Note != "" {
			found = true
		}
	}
	if !found {
		t.Error("no administrator alert logged")
	}
}

// TestSemiAutomaticMode: decisions are queued, not executed, until
// approved; rejection discards them.
func TestSemiAutomaticMode(t *testing.T) {
	tb := newTestbed(t, Config{Mode: SemiAutomatic})
	inst, _ := tb.dep.Start("app", "weak1")
	tb.record(t, archive.HostEntity("weak1"), 0.9, 0.4)
	tb.record(t, archive.InstanceEntity(inst.ID), 0.85, 0.4)
	tb.record(t, archive.ServiceEntity("app"), 0.55, 0.4) // scale-up situation
	for _, h := range []string{"weak2", "mid1", "mid2", "big1", "big2"} {
		tb.record(t, archive.HostEntity(h), 0.1, 0.1)
	}
	d, err := tb.ctl.HandleTrigger(trigger(monitor.ServiceOverloaded, "app"))
	if err != nil || d == nil {
		t.Fatalf("d=%v err=%v", d, err)
	}
	if got, _ := tb.dep.Instance(inst.ID); got.Host != "weak1" {
		t.Error("semi-automatic mode executed without approval")
	}
	if len(tb.ctl.Pending()) != 1 {
		t.Fatalf("pending = %d, want 1", len(tb.ctl.Pending()))
	}
	if _, err := tb.ctl.Approve(0); err != nil {
		t.Fatal(err)
	}
	if got, _ := tb.dep.Instance(inst.ID); got.Host == "weak1" {
		t.Error("approved decision not executed")
	}
	if len(tb.ctl.Pending()) != 0 {
		t.Error("pending not drained after approval")
	}
	if _, err := tb.ctl.Approve(0); err == nil {
		t.Error("approving empty queue succeeded")
	}
	if err := tb.ctl.Reject(0); err == nil {
		t.Error("rejecting empty queue succeeded")
	}
}

// TestNotifyHook: every logged event also reaches the configured
// notification hook, in order.
func TestNotifyHook(t *testing.T) {
	var notified []Event
	tb := newTestbed(t, Config{Notify: func(e Event) { notified = append(notified, e) }})
	inst, _ := tb.dep.Start("app", "weak1")
	tb.record(t, archive.HostEntity("weak1"), 0.9, 0.4)
	tb.record(t, archive.InstanceEntity(inst.ID), 0.85, 0.4)
	tb.record(t, archive.ServiceEntity("app"), 0.55, 0.4)
	for _, h := range []string{"weak2", "mid1", "mid2", "big1", "big2"} {
		tb.record(t, archive.HostEntity(h), 0.1, 0.1)
	}
	d, err := tb.ctl.HandleTrigger(trigger(monitor.ServiceOverloaded, "app"))
	if err != nil || d == nil {
		t.Fatalf("d=%v err=%v", d, err)
	}
	events := tb.ctl.Events()
	if len(notified) != len(events) {
		t.Fatalf("notified %d events, logged %d", len(notified), len(events))
	}
	if len(notified) == 0 || !notified[len(notified)-1].Executed {
		t.Errorf("last notification should be the executed action: %+v", notified)
	}
}

// failingExecutor fails for specific target hosts, testing the "Another
// Host?" retry loop of Figure 6.
type failingExecutor struct {
	inner    Executor
	failFor  map[string]bool
	attempts []string
}

func (f *failingExecutor) Execute(d *Decision) error {
	f.attempts = append(f.attempts, d.TargetHost)
	if f.failFor[d.TargetHost] {
		return errors.New("injected failure")
	}
	return f.inner.Execute(d)
}

func TestExecutionRetriesAnotherHost(t *testing.T) {
	cl := cluster.MustNew(host("weak1", 1, 2048), host("mid1", 2, 4096), host("mid2", 2, 4096))
	cat := service.MustCatalog(&service.Service{
		Name: "app", Type: service.TypeInteractive, MinInstances: 1,
		Allowed: allActions(), MemoryMBPerInstance: 1024, UsersPerUnit: 150, RequestWeight: 1,
	})
	dep := service.NewDeployment(cl, cat)
	arch := archive.New(0)
	fe := &failingExecutor{inner: NewDeploymentExecutor(dep, StickyUsers)}
	ctl, err := New(Config{}, dep, arch, fe)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := dep.Start("app", "weak1")
	for m := 0; m <= 10; m++ {
		arch.Record(archive.HostEntity("weak1"), archive.Sample{Minute: m, CPU: 0.9, Mem: 0.4})
		arch.Record(archive.InstanceEntity(inst.ID), archive.Sample{Minute: m, CPU: 0.85, Mem: 0.4})
		arch.Record(archive.ServiceEntity("app"), archive.Sample{Minute: m, CPU: 0.85, Mem: 0.4})
		arch.Record(archive.HostEntity("mid1"), archive.Sample{Minute: m, CPU: 0.05, Mem: 0.1})
		arch.Record(archive.HostEntity("mid2"), archive.Sample{Minute: m, CPU: 0.30, Mem: 0.1})
	}
	// The best target (idle mid1) fails; the controller must fall back
	// to mid2.
	fe.failFor = map[string]bool{"mid1": true}
	d, err := ctl.HandleTrigger(trigger(monitor.ServiceOverloaded, "app"))
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("no decision despite available fallback host")
	}
	if d.TargetHost != "mid2" {
		t.Errorf("final target = %s, want mid2", d.TargetHost)
	}
	if len(fe.attempts) < 2 || fe.attempts[0] != "mid1" {
		t.Errorf("attempts = %v, want mid1 first then mid2", fe.attempts)
	}
}

// TestExclusiveHostNeverTargeted: the host running the exclusive
// database is never offered as a target.
func TestExclusiveHostNeverTargeted(t *testing.T) {
	tb := newTestbed(t, Config{})
	if _, err := tb.dep.Start("db", "big1"); err != nil {
		t.Fatal(err)
	}
	inst, _ := tb.dep.Start("app", "weak1")
	tb.record(t, archive.HostEntity("weak1"), 0.9, 0.4)
	tb.record(t, archive.InstanceEntity(inst.ID), 0.85, 0.4)
	tb.record(t, archive.ServiceEntity("app"), 0.85, 0.4)
	tb.record(t, archive.HostEntity("big1"), 0.02, 0.1) // idle but exclusive
	for _, h := range []string{"weak2", "mid1", "mid2", "big2"} {
		tb.record(t, archive.HostEntity(h), 0.3, 0.2)
	}
	refs := tb.ctl.candidateRefs(nil, service.ActionScaleOut, "app", inst.ID, 10, nil)
	for _, r := range refs {
		if r.Host.Name == "big1" {
			t.Error("exclusive database host offered as placement target")
		}
	}
}

// TestServiceSpecificRuleBase: an administrator-registered rule base for
// a mission-critical service replaces the default for that trigger.
func TestServiceSpecificRuleBase(t *testing.T) {
	vc := ActionVocabulary()
	// A deliberately inverted rule base: overload always suggests
	// increasing priority rather than scaling.
	custom := mustRB(t, vc, `IF instanceLoad IS high THEN increasePriority IS applicable`)
	cfg := Config{ServiceRules: map[string]map[monitor.TriggerKind]*fuzzy.RuleBase{
		"app": {monitor.ServiceOverloaded: custom},
	}}
	tb := newTestbed(t, cfg)
	inst, _ := tb.dep.Start("app", "weak1")
	tb.record(t, archive.HostEntity("weak1"), 0.9, 0.4)
	tb.record(t, archive.InstanceEntity(inst.ID), 0.9, 0.4)
	tb.record(t, archive.ServiceEntity("app"), 0.9, 0.4)
	cands, err := tb.ctl.SelectActions(trigger(monitor.ServiceOverloaded, "app"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Action != service.ActionIncreasePriority {
		t.Fatalf("candidates = %v, want only increasePriority", cands)
	}
	d, err := tb.ctl.HandleTrigger(trigger(monitor.ServiceOverloaded, "app"))
	if err != nil || d == nil {
		t.Fatalf("d=%v err=%v", d, err)
	}
	got, _ := tb.dep.Instance(inst.ID)
	if got.Priority != 1 {
		t.Errorf("priority = %d after increasePriority, want 1", got.Priority)
	}
}

func TestNewValidation(t *testing.T) {
	tb := newTestbed(t, Config{})
	if _, err := New(Config{}, nil, tb.arch, tb.exec); err == nil {
		t.Error("nil deployment accepted")
	}
	if _, err := New(Config{}, tb.dep, nil, tb.exec); err == nil {
		t.Error("nil archive accepted")
	}
	if _, err := New(Config{}, tb.dep, tb.arch, nil); err == nil {
		t.Error("nil executor accepted")
	}
}

func TestDecisionString(t *testing.T) {
	d := &Decision{Action: service.ActionScaleOut, Service: "FI", TargetHost: "Blade6"}
	if got := d.String(); got != "Out Blade6 (FI)" {
		t.Errorf("String() = %q (the paper's figures annotate actions as \"Out Blade6\")", got)
	}
	d = &Decision{Action: service.ActionScaleIn, Service: "FI", SourceHost: "Blade5"}
	if got := d.String(); got != "In Blade5 (FI)" {
		t.Errorf("String() = %q", got)
	}
	d = &Decision{Action: service.ActionMove, Service: "FI", SourceHost: "Blade11", TargetHost: "Blade13"}
	if got := d.String(); got != "Move Blade11→Blade13 (FI)" {
		t.Errorf("String() = %q", got)
	}
}

func mustRB(t *testing.T, vc *fuzzy.Vocabulary, src string) *fuzzy.RuleBase {
	t.Helper()
	rb, err := fuzzy.NewRuleBase("test", vc, fuzzy.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return rb
}

// Ensure fmt is referenced (used in helpers below when extended).

// TestUnreadableWatchWindowFailsTheDecision: a watch window the archive
// cannot read — here one reaching below a backed archive's ring after
// its store was closed — ends the decision with the store's error; the
// controller does not infer on the latest-sample fallback as if the
// window were empty. A window inside the ring still decides.
func TestUnreadableWatchWindowFailsTheDecision(t *testing.T) {
	tb := newTestbed(t, Config{})
	arch, err := archive.NewBacked(t.TempDir(), 0, tsdb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(Config{}, tb.dep, arch, tb.exec)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := tb.dep.Start("app", "weak1")
	if err != nil {
		t.Fatal(err)
	}
	const now = 200 // past the ring's 128 samples
	for m := 0; m <= now; m++ {
		for _, e := range []string{archive.HostEntity("weak1"), archive.InstanceEntity(inst.ID), archive.ServiceEntity("app")} {
			if err := arch.Record(e, archive.Sample{Minute: m, CPU: 0.9, Mem: 0.4}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	tr := monitor.Trigger{Kind: monitor.ServiceOverloaded, Entity: "app", Minute: now, WatchedFrom: 0, AvgLoad: 0.9}
	if cands, err := ctl.SelectActions(tr); !errors.Is(err, tsdb.ErrClosed) {
		t.Fatalf("watch window from minute 0 over a closed store: %d candidates, err %v; want tsdb.ErrClosed", len(cands), err)
	}
	tr.WatchedFrom = now - 10
	if cands, err := ctl.SelectActions(tr); err != nil || len(cands) == 0 {
		t.Fatalf("watch window inside the ring: %d candidates, err %v", len(cands), err)
	}
}
