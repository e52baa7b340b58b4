package controller

import (
	"strings"
	"testing"

	"autoglobe/internal/archive"
	"autoglobe/internal/service"
)

// TestHandleFailureRestartsInPlace: a crashed instance is restarted on
// its original host when that placement is still valid, and the
// replacement takes over its sessions and priority.
func TestHandleFailureRestartsInPlace(t *testing.T) {
	tb := newTestbed(t, Config{})
	inst, err := tb.dep.Start("app", "weak1")
	if err != nil {
		t.Fatal(err)
	}
	inst.Users, inst.Priority = 40, 1
	// Crash: the instance disappears.
	if err := tb.dep.Stop(inst.ID, true); err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"weak1", "weak2", "mid1", "mid2", "big1", "big2"} {
		tb.record(t, archive.HostEntity(h), 0.2, 0.2)
	}
	d, err := tb.ctl.HandleFailure(*inst, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.Action != service.ActionStart {
		t.Fatalf("decision = %v, want start", d)
	}
	if d.TargetHost != "weak1" {
		t.Errorf("restart target = %s, want original host weak1", d.TargetHost)
	}
	if tb.dep.CountOf("app") != 1 {
		t.Fatalf("app instances after restart = %d, want 1", tb.dep.CountOf("app"))
	}
	if re := tb.dep.InstancesOf("app")[0]; re.Users != 40 || re.Priority != 1 {
		t.Errorf("replacement has %g users at priority %d, want the crashed instance's 40 at 1", re.Users, re.Priority)
	}
	// The failure and the restart both appear in the message log.
	var sawFailure bool
	for _, e := range tb.ctl.Events() {
		if e.Decision == nil && strings.Contains(e.Note, "failure detected") {
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Error("failure not logged")
	}
}

// TestHandleFailureRelocates: when the original host cannot take the
// instance back (here: an exclusive database claimed it), the
// server-selection controller picks a new home.
func TestHandleFailureRelocates(t *testing.T) {
	tb := newTestbed(t, Config{})
	inst, err := tb.dep.Start("app", "big1")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.dep.Stop(inst.ID, true); err != nil {
		t.Fatal(err)
	}
	// The exclusive database moves onto the vacated host.
	if _, err := tb.dep.Start("db", "big1"); err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"weak1", "weak2", "mid1", "mid2", "big1", "big2"} {
		tb.record(t, archive.HostEntity(h), 0.2, 0.2)
	}
	d, err := tb.ctl.HandleFailure(*inst, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("no restart decision")
	}
	if d.TargetHost == "big1" {
		t.Error("restart targeted the now-exclusive host")
	}
	if tb.dep.CountOf("app") != 1 {
		t.Errorf("app instances = %d, want 1", tb.dep.CountOf("app"))
	}
}

// TestHandleFailureNoHostAlerts: with every host unusable, the failure
// escalates to an administrator alert.
func TestHandleFailureNoHostAlerts(t *testing.T) {
	tb := newTestbed(t, Config{})
	inst, _ := tb.dep.Start("app", "weak1")
	tb.dep.Stop(inst.ID, true)
	for _, h := range []string{"weak1", "weak2", "mid1", "mid2", "big1", "big2"} {
		tb.record(t, archive.HostEntity(h), 0.2, 0.2)
		tb.ctl.protHost[h] = 1000 // everything protected
	}
	// The original host is protected too — but CanPlace still allows it,
	// so make it impossible instead: occupy it with the exclusive db.
	if _, err := tb.dep.Start("db", "big1"); err != nil {
		t.Fatal(err)
	}
	tb.dep.Move(tb.dep.InstancesOf("db")[0].ID, "big2") // db on big2
	// weak1 remains placeable; restart succeeds there even under
	// protection (restarts are unconditional remedies).
	d, err := tb.ctl.HandleFailure(*inst, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.TargetHost != "weak1" {
		t.Fatalf("restart on original host should bypass protection, got %v", d)
	}
}

func TestHandleFailureUnknownService(t *testing.T) {
	tb := newTestbed(t, Config{})
	if _, err := tb.ctl.HandleFailure(service.Instance{ID: "ghost-1", Service: "ghost", Host: "weak1"}, 0); err == nil {
		t.Fatal("unknown service accepted")
	}
}
