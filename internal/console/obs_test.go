package console

import (
	"strings"
	"testing"

	"autoglobe/internal/agent"
	"autoglobe/internal/controller"
	"autoglobe/internal/obs"
	"autoglobe/internal/tsdb"
)

func TestObsView(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("autoglobe_controller_decisions_total", "action", "scaleUp", "trigger", "serviceOverloaded").Inc()
	r.Counter("autoglobe_heartbeats_total").Add(42)
	r.Counter(agent.MetricHeartbeatNamedFrames).Add(3)
	r.Counter(agent.MetricHeartbeatResyncs).Add(1)
	r.Gauge(agent.MetricHeartbeatSessionNames, "node", "coordinator").Set(5)
	r.Gauge(agent.MetricHeartbeatSessionNames, "node", "coordinator-standby-1").Set(2)
	sel := r.Histogram(controller.MetricSelectionCandidates, []float64{16, 1024})
	sel.Observe(4)
	sel.Observe(513)
	// Three timed merges around 2 ms, one timed decide; the other stages
	// never ran and must not be listed.
	merge := r.Histogram(agent.MetricMinuteStage, obs.LatencySecondsBuckets(), "stage", "merge")
	for _, v := range []float64{0.002, 0.002, 0.003} {
		merge.Observe(v)
	}
	r.Histogram(agent.MetricMinuteStage, obs.LatencySecondsBuckets(), "stage", "decide").Observe(0.00005)

	tr := obs.NewTracer(8)
	tr.Begin(100, obs.TraceTrigger{Kind: "serviceOverloaded", Entity: "app", Minute: 100})
	tr.Decide(obs.TraceDecision{
		Action: "scaleUp", Service: "app", InstanceID: "app-1",
		SourceHost: "weak1", TargetHost: "big1",
		Applicability: 0.82, HostScore: 0.61,
		Provenance: "0.82  IF cpuLoad IS high THEN scaleUp IS applicable",
	})
	tr.Dispatch(obs.TraceDispatch{Host: "big1", Op: "start", Attempts: 2, OK: true})
	tr.Dispatch(obs.TraceDispatch{Host: "weak1", Op: "stop", Attempts: 1, OK: true, Compensation: true})
	tr.End(obs.OutcomeExecuted, "")
	tr.Begin(105, obs.TraceTrigger{Kind: "serverIdle", Entity: "weak2", Minute: 105})
	tr.End(obs.OutcomeNoAction, "nothing to consolidate")

	v := ObsView(r, tr, 10)
	for _, want := range []string{
		"OBSERVABILITY",
		`autoglobe_controller_decisions_total{action="scaleUp",trigger="serviceOverloaded"} = 1`,
		"autoglobe_heartbeats_total = 42",
		"HEARTBEAT FRAMES\n  indexed 39  named 3  resyncs 1  session dictionary 7 names\nSERVER SELECTIONS",
		"SERVER SELECTIONS\n  2 selections  258.5 candidate hosts each\nMINUTE STAGES",
		"MINUTE STAGES (p50)\n  merge         3ms\n  decide        55µs\nRECENT TRACES",
		"[  100] serviceOverloaded(app) -> executed",
		"scaleUp app inst=app-1 weak1->big1 applicability=0.82 hostScore=0.61",
		"IF cpuLoad IS high THEN scaleUp IS applicable",
		"dispatch start big1 attempts=2 ack",
		"dispatch stop weak1 attempts=1 ack (compensation)",
		"[  105] serverIdle(weak2) -> no-action (nothing to consolidate)",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("obs view missing %q:\n%s", want, v)
		}
	}
}

// TestObsViewArchiveCommits: the panel appears once a commit was
// timed, with the fsync half only for a store that syncs.
func TestObsViewArchiveCommits(t *testing.T) {
	r := obs.NewRegistry()
	if v := ObsView(r, nil, 0); strings.Contains(v, "ARCHIVE COMMITS") {
		t.Fatalf("panel shown with no commit timed:\n%s", v)
	}
	commit := r.Histogram(tsdb.MetricCommit, obs.LatencySecondsBuckets())
	commit.Observe(0.0001)
	commit.Observe(0.0001)
	if v := ObsView(r, nil, 0); !strings.Contains(v, "ARCHIVE COMMITS\n  2 commits  p50 55µs\n") {
		t.Fatalf("NoSync store:\n%s", v)
	}
	r.Histogram(tsdb.MetricSync, obs.LatencySecondsBuckets()).Observe(0.002)
	if v := ObsView(r, nil, 0); !strings.Contains(v, "ARCHIVE COMMITS\n  2 commits  p50 55µs  1 fsyncs  p50 3ms\n") {
		t.Fatalf("syncing store:\n%s", v)
	}
}

// TestObsViewLeaseBeacons: the panel appears once an election counted a
// beacon, and splits them by receiver.
func TestObsViewLeaseBeacons(t *testing.T) {
	r := obs.NewRegistry()
	if v := ObsView(r, nil, 0); strings.Contains(v, "LEASE BEACONS") {
		t.Fatalf("panel shown with no election:\n%s", v)
	}
	r.Counter(agent.MetricElectionBeacons, "to", "member").Add(2880)
	r.Counter(agent.MetricElectionBeacons, "to", "agent").Add(95)
	r.Counter(agent.MetricElectionTakeovers).Add(4)
	if v := ObsView(r, nil, 0); !strings.Contains(v, "LEASE BEACONS\n  to members 2880  to agents 95  takeovers 4\n") {
		t.Fatalf("lease beacons panel:\n%s", v)
	}
}

func TestObsViewTraceLimit(t *testing.T) {
	tr := obs.NewTracer(16)
	for m := 0; m < 5; m++ {
		tr.Begin(m, obs.TraceTrigger{Kind: "serverIdle", Entity: "h", Minute: m})
		tr.End(obs.OutcomeNoAction, "")
	}
	v := ObsView(nil, tr, 2)
	if !strings.Contains(v, "… 3 earlier traces") {
		t.Errorf("limit not applied:\n%s", v)
	}
	if strings.Contains(v, "[    0]") || !strings.Contains(v, "[    4]") {
		t.Errorf("wrong traces kept:\n%s", v)
	}
}

func TestObsViewDegradesGracefully(t *testing.T) {
	v := ObsView(nil, nil, 0)
	for _, want := range []string{"(metrics not attached)", "(traces not attached)"} {
		if !strings.Contains(v, want) {
			t.Errorf("nil view missing %q:\n%s", want, v)
		}
	}
	v = ObsView(obs.NewRegistry(), obs.NewTracer(1), 0)
	for _, want := range []string{"(no metrics recorded)", "(no traces recorded)"} {
		if !strings.Contains(v, want) {
			t.Errorf("empty view missing %q:\n%s", want, v)
		}
	}
}
