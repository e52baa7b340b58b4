package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchSpec mirrors BENCHMARK.json, the contract the harness is held to.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// specPath is where a run started from the repository root finds the
// contract.
const specPath = "BENCHMARK.json"

func loadSpec() (*benchSpec, error) { return loadSpecFrom(specPath) }

func loadSpecFrom(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// check holds a run's output to the contract: exactly the declared
// metrics of its mode, each with the declared unit.
func (s *benchSpec) check(out *output, trace bool) error {
	want := s.EndToEnd
	if trace {
		want = s.PerLayer
	}
	if len(out.Metrics) != len(want) {
		return fmt.Errorf("run emits %d metrics, %s declares %d", len(out.Metrics), specPath, len(want))
	}
	for _, m := range want {
		got, ok := out.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared in %s but not emitted", m.Name, specPath)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s: unit %q emitted, %q declared", m.Name, got.Unit, m.Unit)
		}
	}
	return nil
}

const (
	nsPerMs = 1e6
	nsPerUs = 1e3
)

// output assembles the run's last line: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
func (res *runResult) output(trace bool) *output {
	st := res.st
	out := &output{Metrics: make(map[string]metricValue)}
	out.Attempted, out.Failed, out.Correct = st.attempted, st.failed, st.failed == 0
	put := func(name, unit string, v float64) { out.Metrics[name] = metricValue{Value: v, Unit: unit} }
	// Every measured minute, with or without a leader.
	minutes := float64(st.minutes + st.leaderless)

	if !trace {
		// The numbers a user of the system would see. Every workload
		// reports all of them, and none can be zero.
		put("setup_s", "s", lowQuantile(st.setupS, floorShare))
		put("minute_ms_p50", "ms", st.minute.floor()/nsPerMs)
		put("alloc_kb_per_minute", "KiB", ratio(float64(st.allocBytes)/1024, minutes))
		put("live_heap_mb", "MiB", medianF(st.heapMB))
		return out
	}

	rounds := float64(st.rounds)
	perMinute := func(ns int64) float64 { return ratio(float64(ns)/nsPerMs, minutes) }
	perRound := func(name string) float64 { return ratio(st.counts[name], rounds) }
	perCall := func(ns int64, n int) float64 { return ratio(float64(ns)/nsPerUs, float64(n)) }
	triggers := float64(st.triggers + st.forecasts)
	actions := st.counts["dispatch.actions"]

	// The whole measured span's wall time and the tenant cost, from the
	// interleaved untraced rounds, so that span recording is not billed to
	// the program. Ungated: with more than one P both follow the host's
	// mode more closely than the minute median does.
	plain := res.plain
	put("minute_ms_mean", "ms", plain.minute.mean()/nsPerMs)
	put("cpu_ms_per_minute", "ms", ratio(plain.cpu.sum()/nsPerMs, ratio(float64(plain.minutes+plain.leaderless), float64(plain.rounds))))

	// Workload-specific medians and tails: ungated, with sample counts.
	put("day_ms_p50", "ms", quantile(st.dayNs, 0.5)/nsPerMs)
	put("decision_ms_p50", "ms", st.decision.floor()/nsPerMs)
	put("takeover_ms_p50", "ms", quantile(st.takeoverNs, 0.5)/nsPerMs)
	put("restart_ms_p50", "ms", quantile(st.restartNs, 0.5)/nsPerMs)
	put("cold_start_ms_p50", "ms", quantile(st.coldStartNs, 0.5)/nsPerMs)
	put("tail.minute_ms_p99", "ms", quantile(st.minute.fastest(), 0.99)/nsPerMs)
	put("tail.minute_ms_max", "ms", float64(st.minute.max)/nsPerMs)
	put("tail.decision_ms_p99", "ms", quantile(st.decision.fastest(), 0.99)/nsPerMs)
	put("minute.samples", "count", float64(st.minute.n))
	put("decision.samples", "count", float64(st.decision.n))
	put("takeover.samples", "count", float64(len(st.takeoverNs)))
	put("restart.samples", "count", float64(len(st.restartNs)))
	put("rounds", "count", rounds)

	// Exact costs: identical in traced and untraced rounds (checked).
	put("wire_calls_per_minute", "count", ratio(st.counts["wire.calls"], minutes))
	put("wire_bytes_per_minute", "B", ratio(st.counts["wire.bytes"], minutes))
	put("disk_bytes_per_minute", "B", ratio(st.counts["journal.disk"]+st.counts["tsdb.disk"], minutes))
	put("syncs_per_minute", "count", ratio(st.counts["journal.appends"]-st.counts["journal.commit_groups"]+st.counts["journal.snapshots"]+float64(st.commits), minutes))
	put("failed_share", "ratio", ratio(float64(out.Failed), float64(out.Attempted)))

	// Layer by layer, in loop order.
	put("election.tick_ms_per_minute", "ms", perMinute(st.dur["election.tick"]))
	put("wire.lease_calls", "count", perRound("wire.lease"))
	put("election.leaderless_minutes_per_kill", "count", ratio(float64(st.leaderless), float64(st.kills)))
	put("election.buffered_minutes_drained", "count", ratio(float64(st.drained), rounds))
	put("report.self_ms_per_minute", "ms", perMinute(st.self["report"]))
	put("wire.heartbeat_ms_per_minute", "ms", perMinute(st.dur["wire.heartbeat"]))
	put("wire.heartbeat_calls", "count", perRound("wire.heartbeat"))
	put("wire.heartbeat_bytes_per_call", "B", ratio(st.counts["wire.heartbeat_bytes"], st.counts["wire.heartbeat_sized"]))
	put("merge.ms_per_minute", "ms", perMinute(st.dur["merge"]))
	put("merge.entities_per_minute", "count", ratio(float64(st.entities), float64(st.minutes)))
	put("liveness.ms_per_minute", "ms", perMinute(st.dur["liveness"]))
	put("wire.probe_calls", "count", perRound("wire.probe"))
	put("decide.self_us_per_trigger", "us", ratio(float64(st.self["decide"])/nsPerUs, triggers))
	put("decide.triggers", "count", ratio(triggers, rounds))
	put("decide.executed_share", "ratio", ratio(float64(st.executed), triggers))
	put("wire.action_us_per_call", "us", perCall(st.dur["wire.action"], st.n["wire.action"]))
	put("wire.action_calls", "count", perRound("wire.action"))
	put("exec.apply_us_per_action", "us", perCall(st.dur["exec.apply"], st.n["exec.apply"]))
	put("dispatch.attempts", "count", perRound("dispatch.attempts"))
	put("dispatch.retries", "count", perRound("dispatch.retries"))
	put("dispatch.nacks", "count", perRound("dispatch.nacks"))
	put("journal.appends", "count", perRound("journal.appends"))
	put("journal.commit_groups", "count", perRound("journal.commit_groups"))
	put("journal.bytes_per_action", "B", ratio(st.counts["journal.disk"], actions))
	put("proactive.ms_per_minute", "ms", perMinute(st.dur["proactive"]))
	put("proactive.triggers", "count", ratio(float64(st.forecasts), rounds))
	put("maintain.ms_per_minute", "ms", perMinute(st.dur["maintain"]))
	put("maintain.ms_max", "ms", float64(st.maintMx)/nsPerMs)
	put("tsdb.commits", "count", ratio(float64(st.commits), rounds))
	put("tsdb.disk_bytes_per_minute", "B", ratio(st.counts["tsdb.disk"], minutes))
	put("gc.cycles", "count", ratio(float64(st.gcCycles), rounds))
	put("gc.pause_ms_total", "ms", ratio(float64(st.gcPauseNs)/nsPerMs, rounds))
	put("loadgen.ms_per_minute", "ms", perMinute(st.loadgenNs))
	put("loadgen.seed_s", "s", ratio(st.seedS, rounds))

	// What the spans themselves cost, and how much of a minute they
	// explain: stage spans over minute spans, and the traced minute
	// median over the interleaved untraced rounds' median.
	var stages int64
	for _, name := range []string{"election.tick", "report", "merge", "liveness", "decide", "proactive", "maintain"} {
		stages += st.dur[name]
	}
	put("trace.stage_coverage", "ratio", ratio(float64(stages), float64(st.dur["minute"])))
	put("trace.minute_ms_p50", "ms", st.minute.floor()/nsPerMs)
	put("trace.overhead_share", "ratio", ratio(st.minute.floor(), res.plain.minute.floor())-1)

	names := make([]string, 0, len(res.probes))
	for name := range res.probes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		unit := "ns"
		if strings.HasSuffix(name, "_us") {
			unit = "us"
		}
		put(name, unit, res.probes[name])
	}
	return out
}
