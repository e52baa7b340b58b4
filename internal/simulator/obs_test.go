package simulator

import (
	"fmt"
	"strings"
	"testing"

	"autoglobe/internal/obs"
	"autoglobe/internal/service"
	"autoglobe/internal/wire"
)

// renderTraces flattens every trace of a run into comparable lines:
// minute, trigger, outcome, and — where the controller resolved one —
// the decision with its full rule provenance. Dispatch events are
// deliberately excluded: only distributed runs have them. Floats use
// %v, so two runs compare equal only if every applicability, host
// score and provenance line is bit-identical.
func renderTraces(traces []obs.Trace) (lines []string, decisions int) {
	for _, tc := range traces {
		line := fmt.Sprintf("%d|%s(%s)|%s", tc.Minute, tc.Trigger.Kind, tc.Trigger.Entity, tc.Outcome)
		if d := tc.Decision; d != nil {
			decisions++
			line += fmt.Sprintf("|%s %s inst=%s %s->%s a=%v h=%v|%s",
				d.Action, d.Service, d.InstanceID, d.SourceHost, d.TargetHost,
				d.Applicability, d.HostScore, d.Provenance)
		}
		lines = append(lines, line)
	}
	return lines, decisions
}

// tuneForDecisions makes the declared landscape actually execute
// actions: with the default applicability and host-score thresholds
// its triggers all resolve to administrator alerts, which would leave
// the decision half of the parity comparison vacuous.
func tuneForDecisions(c *Config) {
	tuneForActions(c)
	c.Controller.MinApplicability = 0.05
	c.Controller.MinHostScore = 0.05
}

// tracedRun executes the declared landscape with a tracer and registry
// attached and returns the rendered trace lines.
func tracedRun(t *testing.T, label string, adjust func(*Config)) []string {
	t.Helper()
	tr := obs.NewTracer(4096)
	r := obs.NewRegistry()
	sim := declaredSim(t, func(c *Config) {
		tuneForDecisions(c)
		c.Obs = r
		c.Tracer = tr
		if adjust != nil {
			adjust(c)
		}
	})
	if _, err := sim.Run(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	lines, decisions := renderTraces(tr.Snapshot())
	if len(lines) == 0 {
		t.Fatalf("%s: run produced no traces — the comparison is vacuous", label)
	}
	if decisions == 0 {
		t.Fatalf("%s: no trace carries a decision — the provenance comparison is vacuous", label)
	}
	// Every traced decision must carry counted metrics alongside.
	snap := r.Snapshot()
	var decided float64
	for key, v := range snap {
		if strings.HasPrefix(key, obsDecisionsPrefix) {
			decided += v
		}
	}
	if int(decided) != decisions {
		t.Fatalf("%s: %d traced decisions but decision counter sums to %v", label, decisions, decided)
	}
	return lines
}

const obsDecisionsPrefix = "autoglobe_controller_decisions_total{"

// TestTraceDecisionParityAcrossTransports extends the byte-identity
// claim to the observability layer: the decision stream recorded by the
// tracer — action, instance, hosts, applicability, host score, and the
// full rule provenance — is identical whether the control loop runs
// in-process, over a loopback transport, or over real HTTP sockets.
func TestTraceDecisionParityAcrossTransports(t *testing.T) {
	base := tracedRun(t, "in-process", nil)

	lb := wire.NewLoopback()
	defer lb.Close()
	loop := tracedRun(t, "loopback", func(c *Config) {
		c.Distributed = &DistributedConfig{Transport: lb}
	})

	ht := wire.NewHTTP()
	defer ht.Close()
	http := tracedRun(t, "http", func(c *Config) {
		c.Distributed = &DistributedConfig{Transport: ht}
	})

	for _, got := range []struct {
		label string
		lines []string
	}{{"loopback", loop}, {"http", http}} {
		if len(got.lines) != len(base) {
			t.Fatalf("%s: %d traces, in-process %d\n got: %v\nwant: %v",
				got.label, len(got.lines), len(base), got.lines, base)
		}
		for i := range base {
			if got.lines[i] != base[i] {
				t.Fatalf("%s: trace %d diverges\n got: %s\nwant: %s",
					got.label, i, got.lines[i], base[i])
			}
		}
	}
}

// TestObsDoesNotPerturbRun pins the attach-only property: a run with
// full instrumentation produces the same action log and load series as
// an uninstrumented run.
func TestObsDoesNotPerturbRun(t *testing.T) {
	plain, err := declaredSim(t, tuneForActions).Run()
	if err != nil {
		t.Fatal(err)
	}
	instrumented, err := declaredSim(t, func(c *Config) {
		tuneForActions(c)
		c.Obs = obs.NewRegistry()
		c.Tracer = obs.NewTracer(0)
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, plain, instrumented, "instrumented")
}

// TestDistributedTraceCarriesDispatches asserts the distributed-only
// half of a trace: executed decisions carry per-host dispatch events
// acknowledged by the agents.
func TestDistributedTraceCarriesDispatches(t *testing.T) {
	lb := wire.NewLoopback()
	defer lb.Close()
	tr := obs.NewTracer(4096)
	sim := declaredSim(t, func(c *Config) {
		tuneForDecisions(c)
		c.Tracer = tr
		c.Distributed = &DistributedConfig{Transport: lb}
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	var executed, withDispatch int
	for _, tc := range tr.Snapshot() {
		if tc.Outcome != obs.OutcomeExecuted {
			continue
		}
		executed++
		if len(tc.Dispatches) == 0 {
			continue
		}
		withDispatch++
		for _, ev := range tc.Dispatches {
			if !ev.OK {
				t.Errorf("fault-free dispatch failed: %+v", ev)
			}
			if ev.Attempts < 1 {
				t.Errorf("dispatch with %d attempts: %+v", ev.Attempts, ev)
			}
		}
	}
	if executed == 0 {
		t.Fatal("no executed traces")
	}
	if withDispatch == 0 {
		t.Fatal("no executed trace carries dispatch events")
	}
}

// TestLivenessCountsHostDeathsOnly: the liveness transition counter is
// the coordinator's host detector. An orderly scale-in or an injected
// instance crash is no host death: a fault-free in-process run
// publishes no dead transition at all, and a distributed run with
// crashes and partitions counts exactly the hosts it demoted.
func TestLivenessCountsHostDeathsOnly(t *testing.T) {
	dead := `autoglobe_liveness_transitions_total{transition="dead"}`
	t.Run("in-process", func(t *testing.T) {
		r := obs.NewRegistry()
		cfg := PaperConfig(service.FullMobility, 1.15)
		cfg.Obs = r
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		scaleIns := 0
		for _, e := range sim.Controller().Events() {
			if e.Executed && e.Decision != nil && e.Decision.Action == service.ActionScaleIn {
				scaleIns++
			}
		}
		if scaleIns == 0 {
			t.Fatal("the run scaled nothing in — the check is vacuous")
		}
		if v, ok := r.Snapshot()[dead]; ok {
			t.Errorf("%s = %v after %d orderly scale-ins and no host death", dead, v, scaleIns)
		}
	})
	t.Run("distributed", func(t *testing.T) {
		lb := wire.NewLoopback()
		defer lb.Close()
		r := obs.NewRegistry()
		cfg := PaperConfig(service.FullMobility, 1.15)
		cfg.Hours = 12
		cfg.FailuresPerDay = 48
		cfg.Obs = r
		cfg.Distributed = &DistributedConfig{Transport: lb, Dispatch: chaosDispatch()}
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		hosts := sim.Deployment().Cluster().Names()
		var isolated string
		for m := 0; m < cfg.Hours*60; m++ {
			// Every 90 minutes one host is cut off for half an hour.
			switch m % 90 {
			case 10:
				isolated = hosts[(m/90*7+1)%len(hosts)]
				lb.Isolate(isolated)
			case 40:
				lb.Heal(isolated)
			}
			if err := sim.Step(m); err != nil {
				t.Fatalf("minute %d: %v", m, err)
			}
		}
		res := sim.res
		if res.DemotedHosts == 0 || res.Restarts <= res.DemotedHosts {
			t.Fatalf("%d hosts demoted, %d restarts: the run needs both host deaths and instance crashes", res.DemotedHosts, res.Restarts)
		}
		if got := r.Snapshot()[dead]; got != float64(res.DemotedHosts) {
			t.Errorf("%s = %v, want the %d demoted hosts", dead, got, res.DemotedHosts)
		}
	})
}
