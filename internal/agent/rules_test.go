package agent

import (
	"context"
	"strings"
	"testing"

	"autoglobe/internal/controller"
	"autoglobe/internal/journal"
	"autoglobe/internal/monitor"
	"autoglobe/internal/rules"
	"autoglobe/internal/service"
	"autoglobe/internal/wire"
)

const pushedSrc = "IF instanceLoad IS high THEN scaleOut IS applicable\n"

// rulePlane wires a plane with a rule registry, a controller, and a
// loopback transport.
func rulePlane(t *testing.T) (*Plane, *rules.Registry, *controller.Controller, wire.Transport, *service.Deployment) {
	t.Helper()
	dep := testDeployment(t)
	tr := wire.NewLoopback()
	t.Cleanup(func() { tr.Close() })
	lms, err := monitor.NewSystem(monitor.Params{OverloadThreshold: 0.70, OverloadWatch: 2,
		IdleThresholdBase: 0.125, IdleWatch: 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlane(PlaneConfig{Transport: tr, Dispatch: fastDispatch()}, dep, lms)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := controller.New(controller.Config{}, dep, lms.Archive(),
		controller.NewDeploymentExecutor(dep, controller.StickyUsers))
	if err != nil {
		t.Fatal(err)
	}
	reg := rules.New(controller.RuleVocabulary)
	if err := p.AttachRules(reg, ctl); err != nil {
		t.Fatal(err)
	}
	return p, reg, ctl, tr, dep
}

// push sends one rulePut over the transport and returns the reply.
func push(t *testing.T, tr wire.Transport, put wire.RulePut) wire.RulePut {
	t.Helper()
	reply, err := tr.Call(context.Background(), CoordinatorNode,
		wire.RulePutEnvelope("admin", CoordinatorNode, put))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.TypeRulePut || reply.RulePut == nil {
		t.Fatalf("reply = %+v, want rulePut", reply)
	}
	out := *reply.RulePut
	wire.ReleaseEnvelope(reply)
	return out
}

func TestCoordinatorRulePush(t *testing.T) {
	_, reg, _, tr, _ := rulePlane(t)

	// A broken rule file is rejected with a reason, and nothing is
	// stored or activated — validation before any version exists.
	r := push(t, tr, wire.RulePut{Name: "serviceOverloaded", Source: "IF broken", Activate: true})
	if r.Error == "" {
		t.Fatalf("broken source accepted: %+v", r)
	}
	if len(reg.List()) != 0 {
		t.Fatalf("rejected push left entries: %+v", reg.List())
	}

	// Hash mismatch is caught before validation.
	r = push(t, tr, wire.RulePut{Name: "serviceOverloaded", Source: pushedSrc, Hash: "feedface"})
	if !strings.Contains(r.Error, "hash mismatch") {
		t.Fatalf("corrupted push error = %q", r.Error)
	}

	// A valid push archives without activating.
	r = push(t, tr, wire.RulePut{Name: "serviceOverloaded", Source: pushedSrc, Hash: rules.Hash(pushedSrc)})
	if r.Error != "" || r.Version != 1 || r.Hash != rules.Hash(pushedSrc) {
		t.Fatalf("push reply = %+v", r)
	}
	if _, ok := reg.Active("serviceOverloaded"); ok {
		t.Fatal("plain push activated implicitly")
	}

	// An Activate push swaps the controller and marks the version
	// active. Idempotent by content: same version comes back.
	r = push(t, tr, wire.RulePut{Name: "serviceOverloaded", Source: pushedSrc, Activate: true})
	if r.Error != "" || r.Version != 1 {
		t.Fatalf("activate reply = %+v", r)
	}
	a, ok := reg.Active("serviceOverloaded")
	if !ok || a.Version != 1 {
		t.Fatalf("active = %+v, %v", a, ok)
	}

	// A name no controller slot answers to fails the swap and stays
	// inactive (but archived — the admin can still ruleGet it back).
	r = push(t, tr, wire.RulePut{Name: "nonsense", Source: pushedSrc, Activate: true})
	if r.Error == "" {
		t.Fatalf("unroutable activation accepted: %+v", r)
	}
	if _, ok := reg.Active("nonsense"); ok {
		t.Fatal("failed swap left the version active")
	}
	if _, ok := reg.Get("nonsense", 1); !ok {
		t.Fatal("failed swap discarded the archived version")
	}
}

func TestCoordinatorRuleGetAndList(t *testing.T) {
	_, _, _, tr, _ := rulePlane(t)
	ctx := context.Background()

	push(t, tr, wire.RulePut{Name: "serviceOverloaded", Source: pushedSrc, Activate: true})

	get := wire.NewEnvelope(wire.TypeRuleGet, "admin", CoordinatorNode)
	get.RuleGet = &wire.RuleGet{Name: "serviceOverloaded"}
	reply, err := tr.Call(ctx, CoordinatorNode, get)
	if err != nil {
		t.Fatal(err)
	}
	got := *reply.RulePut
	wire.ReleaseEnvelope(reply)
	if got.Error != "" || got.Source != pushedSrc || got.Version != 1 {
		t.Fatalf("ruleGet reply = %+v", got)
	}

	get = wire.NewEnvelope(wire.TypeRuleGet, "admin", CoordinatorNode)
	get.RuleGet = &wire.RuleGet{Name: "serviceOverloaded", Version: 9}
	reply, err = tr.Call(ctx, CoordinatorNode, get)
	if err != nil {
		t.Fatal(err)
	}
	if reply.RulePut.Error == "" {
		t.Fatalf("missing version answered: %+v", reply.RulePut)
	}
	wire.ReleaseEnvelope(reply)

	reply, err = tr.Call(ctx, CoordinatorNode,
		wire.RuleListEnvelope("admin", CoordinatorNode, wire.RuleList{}))
	if err != nil {
		t.Fatal(err)
	}
	l := reply.RuleList
	if l == nil || len(l.Entries) != 1 || !l.Entries[0].Active || l.Entries[0].Name != "serviceOverloaded" {
		t.Fatalf("ruleList reply = %+v", l)
	}
	wire.ReleaseEnvelope(reply)
}

// TestRuleActivationSurvivesRestart pins the crash-recovery story: an
// activated rule base is journaled, and a fresh incarnation — new
// plane, new registry, new controller — replays the activation from
// the journal alone.
func TestRuleActivationSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	p, reg, _, tr, _ := rulePlane(t)
	if _, _, err := p.AttachJournal(ctx, dir, journal.Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	r := push(t, tr, wire.RulePut{Name: "serviceOverloaded", Source: pushedSrc, Activate: true})
	if r.Error != "" {
		t.Fatal(r.Error)
	}
	// Archived-but-inactive versions are NOT journaled.
	r = push(t, tr, wire.RulePut{Name: "serverIdle", Source: "IF cpuLoad IS low THEN stop IS applicable\n"})
	if r.Error != "" {
		t.Fatal(r.Error)
	}
	if err := p.disp.Journal().Close(); err != nil {
		t.Fatal(err)
	}

	// The next incarnation starts empty and recovers from the journal.
	p2, reg2, _, _, _ := rulePlane(t)
	if reg2 == reg {
		t.Fatal("fixture reused the registry")
	}
	if _, _, err := p2.AttachJournal(ctx, dir, journal.Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	a, ok := reg2.Active("serviceOverloaded")
	if !ok || a.Version != 1 || a.Hash != rules.Hash(pushedSrc) || a.Source != pushedSrc {
		t.Fatalf("recovered active = %+v, %v", a, ok)
	}
	if _, ok := reg2.Active("serverIdle"); ok {
		t.Fatal("unactivated push resurrected as active")
	}
	if _, ok := reg2.Get("serverIdle", 1); ok {
		t.Fatal("unactivated push replayed into the registry")
	}
}
