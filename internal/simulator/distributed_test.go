package simulator

import (
	"fmt"
	"testing"

	"autoglobe/internal/controller"
	"autoglobe/internal/spec"
	"autoglobe/internal/wire"
)

// declaredSim builds a simulator from the declarative test landscape,
// optionally adjusting the derived configuration (e.g. attaching a
// distributed control plane).
func declaredSim(t *testing.T, adjust func(*Config)) *Simulator {
	t.Helper()
	l, err := spec.ParseString(declaredLandscape)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := FromLandscapeConfig(l, adjust)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// renderEvents flattens the controller's event log into comparable
// lines. Floats use %v (the shortest representation that uniquely
// identifies the float64), so two logs compare equal only if every
// applicability and host score is bit-identical.
func renderEvents(events []controller.Event) []string {
	out := make([]string, 0, len(events))
	for _, e := range events {
		line := fmt.Sprintf("%d|%v|%s", e.Minute, e.Executed, e.Note)
		if d := e.Decision; d != nil {
			line += fmt.Sprintf("|%s %s inst=%s %s->%s a=%v h=%v",
				d.Action, d.Service, d.InstanceID, d.SourceHost, d.TargetHost,
				d.Applicability, d.HostScore)
		}
		out = append(out, line)
	}
	return out
}

// assertIdentical compares two runs down to the bit: the action log,
// the trigger tallies and every per-minute load sample must agree.
func assertIdentical(t *testing.T, want, got *Result, label string) {
	t.Helper()
	wantLog, gotLog := renderEvents(want.Actions), renderEvents(got.Actions)
	if len(wantLog) != len(gotLog) {
		t.Fatalf("%s: %d events, in-process %d\n got: %v\nwant: %v",
			label, len(gotLog), len(wantLog), gotLog, wantLog)
	}
	for i := range wantLog {
		if wantLog[i] != gotLog[i] {
			t.Fatalf("%s: event %d diverges\n got: %s\nwant: %s", label, i, gotLog[i], wantLog[i])
		}
	}
	if len(wantLog) == 0 {
		t.Fatalf("%s: runs agree but produced no controller events — the comparison is vacuous", label)
	}
	for kind, n := range want.TriggerCount {
		if got.TriggerCount[kind] != n {
			t.Errorf("%s: %s triggers = %d, in-process %d", label, kind, got.TriggerCount[kind], n)
		}
	}
	if len(got.AvgLoad) != len(want.AvgLoad) {
		t.Fatalf("%s: %d avg-load samples, in-process %d", label, len(got.AvgLoad), len(want.AvgLoad))
	}
	for i := range want.AvgLoad {
		if got.AvgLoad[i] != want.AvgLoad[i] {
			t.Fatalf("%s: avg load diverges at minute %d: %v vs %v",
				label, i, got.AvgLoad[i], want.AvgLoad[i])
		}
	}
	for _, h := range want.Hosts {
		wantSeries, gotSeries := want.HostLoad[h], got.HostLoad[h]
		if len(wantSeries) != len(gotSeries) {
			t.Fatalf("%s: host %s has %d samples, in-process %d", label, h, len(gotSeries), len(wantSeries))
		}
		for i := range wantSeries {
			if wantSeries[i] != gotSeries[i] {
				t.Fatalf("%s: host %s load diverges at minute %d: %v vs %v",
					label, h, i, gotSeries[i], wantSeries[i])
			}
		}
	}
}

// tuneForActions lowers the overload threshold so the declared day
// curve actually drives the controller: without confirmed triggers the
// byte-identity comparison would be vacuous. Applied identically to
// both runs of a comparison.
func tuneForActions(c *Config) {
	c.Monitor.OverloadThreshold = 0.55
	c.Monitor.OverloadWatch = 3
}

// TestDistributedLoopbackByteIdentical is the core correctness claim of
// the wire layer: routing every observation and every action through
// heartbeats, dispatched operations and agent acknowledgements changes
// nothing — the full monitor → fuzzy controller → action round trip
// produces a byte-identical run over the loopback transport.
func TestDistributedLoopbackByteIdentical(t *testing.T) {
	base, err := declaredSim(t, tuneForActions).Run()
	if err != nil {
		t.Fatal(err)
	}

	lb := wire.NewLoopback()
	defer lb.Close()
	sim := declaredSim(t, func(c *Config) {
		tuneForActions(c)
		c.Distributed = &DistributedConfig{Transport: lb}
	})
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, base, res, "loopback")
	if res.DemotedHosts != 0 || res.RepooledHosts != 0 {
		t.Errorf("fault-free run demoted %d and repooled %d hosts, want none",
			res.DemotedHosts, res.RepooledHosts)
	}
	// Every minute of the run crossed the wire.
	wantBeats := res.Minutes * len(res.Hosts)
	if got := sim.Plane().Coordinator().Heartbeats(); got != wantBeats {
		t.Errorf("coordinator ingested %d heartbeats, want %d", got, wantBeats)
	}
}

// TestDistributedHTTPByteIdentical repeats the identity over real
// sockets: the length-prefixed binary frames carry IEEE float64 bits
// verbatim, so the run survives the trip through net/http bit-exactly —
// no decimal round-trip is even involved.
func TestDistributedHTTPByteIdentical(t *testing.T) {
	base, err := declaredSim(t, tuneForActions).Run()
	if err != nil {
		t.Fatal(err)
	}

	tr := wire.NewHTTP()
	defer tr.Close()
	res, err := declaredSim(t, func(c *Config) {
		tuneForActions(c)
		c.Distributed = &DistributedConfig{Transport: tr}
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, base, res, "http")
}

// TestDistributedPartitionDemotesAndRepools partitions a host mid-run:
// its heartbeats and probes vanish, the hysteresis detector confirms it
// dead, the host is demoted and its instance restarted elsewhere; when
// the partition heals, answered probes re-pool the empty host. The
// detector is the coordinator's paper-scale one (probe after 2 silent
// minutes, dead after 2 missed probes, alive after 2 beats), so the
// minutes are exact: isolated from minute 10, b1 is demoted at 13;
// healed before minute 14, it is re-pooled at 15.
func TestDistributedPartitionDemotesAndRepools(t *testing.T) {
	lb := wire.NewLoopback()
	defer lb.Close()
	sim := declaredSim(t, func(c *Config) {
		c.Distributed = &DistributedConfig{Transport: lb}
	})

	step := func(m int) {
		t.Helper()
		if err := sim.Step(m); err != nil {
			t.Fatalf("minute %d: %v", m, err)
		}
	}
	for m := 0; m < 10; m++ {
		step(m)
	}

	lb.Isolate("b1")
	minute, demotedAt := 10, -1
	for ; minute < 30 && demotedAt < 0; minute++ {
		step(minute)
		if sim.res.DemotedHosts > 0 {
			demotedAt = minute
		}
	}
	if demotedAt != 13 {
		t.Fatalf("partitioned host demoted at minute %d, want 13", demotedAt)
	}
	if _, ok := sim.Deployment().Cluster().Host("b1"); ok {
		t.Fatal("demoted host still pooled")
	}
	// The lost app instance was restarted on a surviving host.
	insts := sim.Deployment().InstancesOf("app")
	if len(insts) != 2 {
		t.Fatalf("app has %d instances after demotion, want 2 (one restarted)", len(insts))
	}
	for _, inst := range insts {
		if inst.Host == "b1" {
			t.Fatalf("instance %s still placed on the dead host", inst.ID)
		}
	}
	if sim.res.Restarts == 0 {
		t.Error("restart not counted")
	}

	lb.Heal("b1")
	repooledAt := -1
	for ; minute < 60 && repooledAt < 0; minute++ {
		step(minute)
		if sim.res.RepooledHosts > 0 {
			repooledAt = minute
		}
	}
	if sim.res.RepooledHosts != 1 || repooledAt != 15 {
		t.Fatalf("healed host re-pooled %d times, at minute %d; want once, at 15", sim.res.RepooledHosts, repooledAt)
	}
	h, ok := sim.Deployment().Cluster().Host("b1")
	if !ok {
		t.Fatal("re-pooled host missing from the cluster")
	}
	if h.Name != "b1" || sim.Deployment().CountOn("b1") != 0 {
		t.Fatalf("re-pooled host %+v should rejoin empty", h)
	}
	// The re-pooled host's load series is padded for its absence, so
	// the result stays rectangular enough for the summaries.
	step(minute)
	if got, want := len(sim.result().HostLoad["b1"]), sim.res.Minutes; got != want {
		t.Fatalf("b1 load series has %d samples after %d minutes", got, want)
	}
}
