package console

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"autoglobe/internal/agent"
	"autoglobe/internal/controller"
	"autoglobe/internal/obs"
	"autoglobe/internal/tsdb"
)

// ObsView renders the observability panel: the registry's metric
// families as sorted "series = value" lines, how the heartbeats arrived
// (by session index or by name), how many candidate hosts a server
// selection scored, what the load archive's commits and fsyncs cost,
// the median duration of each control-plane minute stage, and the most
// recent control-loop traces (trigger → decision → outcome). It is the console twin of the
// /autoglobe/v1/metrics and /autoglobe/v1/traces endpoints, for the
// administrator watching a run from a terminal instead of a scrape
// pipeline. Nil arguments render as absent sections, so the panel
// degrades gracefully on uninstrumented runs.
func ObsView(r *obs.Registry, tr *obs.Tracer, traceLimit int) string {
	var sb strings.Builder
	sb.WriteString("OBSERVABILITY\n")

	if r == nil {
		sb.WriteString("  (metrics not attached)\n")
	} else {
		snap := r.Snapshot()
		keys := make([]string, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if len(keys) == 0 {
			sb.WriteString("  (no metrics recorded)\n")
		}
		for _, k := range keys {
			fmt.Fprintf(&sb, "  %s = %g\n", k, snap[k])
		}
		// How the heartbeats arrived: a steady landscape reports by
		// session index; names mean first contacts, changed instance
		// lists, failovers — and resyncs a coordinator that restarted.
		if named, ok := snap[agent.MetricHeartbeatNamedFrames]; ok {
			var names float64
			for _, k := range keys {
				if strings.HasPrefix(k, agent.MetricHeartbeatSessionNames) {
					names += snap[k]
				}
			}
			fmt.Fprintf(&sb, "HEARTBEAT FRAMES\n  indexed %g  named %g  resyncs %g  session dictionary %g names\n",
				snap[agent.MetricHeartbeats]-named, named, snap[agent.MetricHeartbeatResyncs], names)
		}
		// A server selection runs one inference per candidate host.
		if n := snap[controller.MetricSelectionCandidates+"_count"]; n > 0 {
			fmt.Fprintf(&sb, "SERVER SELECTIONS\n  %g selections  %.1f candidate hosts each\n",
				n, snap[controller.MetricSelectionCandidates+"_sum"]/n)
		}
		// What persistence costs: one commit a minute, and an fsync for
		// each segment it wrote unless the store runs NoSync.
		if p50, ok := r.Quantile(tsdb.MetricCommit, 0.5); ok {
			fmt.Fprintf(&sb, "ARCHIVE COMMITS\n  %g commits  p50 %v", snap[tsdb.MetricCommit+"_count"], seconds(p50))
			if p50, ok := r.Quantile(tsdb.MetricSync, 0.5); ok {
				fmt.Fprintf(&sb, "  %g fsyncs  p50 %v", snap[tsdb.MetricSync+"_count"], seconds(p50))
			}
			sb.WriteString("\n")
		}
	}

	// Where did the minute go: the median of each pipeline stage, in
	// pipeline order — shown only once a minute has been timed.
	header := false
	for _, stage := range agent.MinuteStages {
		p50, ok := r.Quantile(agent.MetricMinuteStage, 0.5, "stage", stage)
		if !ok {
			continue
		}
		if !header {
			sb.WriteString("MINUTE STAGES (p50)\n")
			header = true
		}
		fmt.Fprintf(&sb, "  %-13s %v\n", stage, seconds(p50))
	}

	sb.WriteString("RECENT TRACES\n")
	switch {
	case tr == nil:
		sb.WriteString("  (traces not attached)\n")
	default:
		traces := tr.Snapshot()
		if len(traces) == 0 {
			sb.WriteString("  (no traces recorded)\n")
		}
		start := 0
		if traceLimit > 0 && len(traces) > traceLimit {
			start = len(traces) - traceLimit
			fmt.Fprintf(&sb, "  … %d earlier traces\n", start)
		}
		for _, t := range traces[start:] {
			fmt.Fprintf(&sb, "  [%5d] %s(%s) -> %s", t.Minute, t.Trigger.Kind, t.Trigger.Entity, t.Outcome)
			if t.Note != "" {
				fmt.Fprintf(&sb, " (%s)", t.Note)
			}
			sb.WriteString("\n")
			if d := t.Decision; d != nil {
				fmt.Fprintf(&sb, "          %s %s", d.Action, d.Service)
				if d.InstanceID != "" {
					fmt.Fprintf(&sb, " inst=%s", d.InstanceID)
				}
				if d.SourceHost != "" || d.TargetHost != "" {
					fmt.Fprintf(&sb, " %s->%s", d.SourceHost, d.TargetHost)
				}
				fmt.Fprintf(&sb, " applicability=%.2f", d.Applicability)
				if d.TargetHost != "" {
					fmt.Fprintf(&sb, " hostScore=%.2f", d.HostScore)
				}
				sb.WriteString("\n")
				// Rule provenance, one indented line per firing rule.
				for _, line := range strings.Split(d.Provenance, "\n") {
					if line != "" {
						fmt.Fprintf(&sb, "            %s\n", line)
					}
				}
			}
			for _, ev := range t.Dispatches {
				status := "ack"
				switch {
				case !ev.OK:
					status = "FAILED"
				case ev.Duplicate:
					status = "duplicate ack"
				}
				fmt.Fprintf(&sb, "          dispatch %s %s attempts=%d %s", ev.Op, ev.Host, ev.Attempts, status)
				if ev.Compensation {
					sb.WriteString(" (compensation)")
				}
				if ev.Error != "" {
					fmt.Fprintf(&sb, " err=%q", ev.Error)
				}
				sb.WriteString("\n")
			}
		}
	}
	return strings.TrimRight(sb.String(), "\n")
}

// seconds renders a latency in seconds at microsecond resolution.
func seconds(v float64) time.Duration {
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond)
}
