package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestTracerLifecycle(t *testing.T) {
	tr := NewTracer(8)
	tr.Begin(5, TraceTrigger{Kind: "serverOverloaded", Entity: "b1", Minute: 5, AvgLoad: 0.8})
	tr.Decide(TraceDecision{Action: "move", Service: "app", SourceHost: "b1", TargetHost: "b2",
		Applicability: 0.62, Provenance: "0.62  IF cpuLoad IS high THEN move IS applicable"})
	tr.Dispatch(TraceDispatch{Host: "b1", Op: "unbind", Attempts: 1, OK: true})
	tr.Dispatch(TraceDispatch{Host: "b2", Op: "bind", Attempts: 2, OK: true, Duplicate: true})
	tr.End(OutcomeExecuted, "")

	traces := tr.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.Seq != 1 || got.Minute != 5 || got.Outcome != OutcomeExecuted {
		t.Fatalf("trace header wrong: %+v", got)
	}
	if got.Decision == nil || got.Decision.TargetHost != "b2" {
		t.Fatalf("decision not recorded: %+v", got.Decision)
	}
	if !strings.Contains(got.Decision.Provenance, "cpuLoad IS high") {
		t.Fatalf("rule provenance missing: %q", got.Decision.Provenance)
	}
	if len(got.Dispatches) != 2 || !got.Dispatches[1].Duplicate {
		t.Fatalf("dispatches not recorded: %+v", got.Dispatches)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(3)
	for m := 0; m < 5; m++ {
		tr.Begin(m, TraceTrigger{Kind: "serviceIdle", Entity: "app", Minute: m})
		tr.End(OutcomeNoAction, "")
	}
	traces := tr.Snapshot()
	if len(traces) != 3 {
		t.Fatalf("ring kept %d traces, want 3", len(traces))
	}
	for i, want := range []int{2, 3, 4} {
		if traces[i].Minute != want {
			t.Fatalf("trace %d has minute %d, want %d (oldest first)", i, traces[i].Minute, want)
		}
	}
	if tr.Total() != 5 {
		t.Fatalf("Total = %d, want 5", tr.Total())
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
}

func TestTracerEventsOutsideOpenTraceDropped(t *testing.T) {
	tr := NewTracer(4)
	tr.Decide(TraceDecision{Action: "move"}) // no open trace
	tr.Dispatch(TraceDispatch{Host: "b1"})   // no open trace
	tr.End(OutcomeExecuted, "")              // no open trace
	if tr.Len() != 0 {
		t.Fatal("events without an open trace must not create traces")
	}

	// An unmatched Begin is sealed as abandoned by the next Begin.
	tr.Begin(1, TraceTrigger{Kind: "serverIdle", Entity: "b1"})
	tr.Begin(2, TraceTrigger{Kind: "serverIdle", Entity: "b2"})
	tr.End(OutcomeNoAction, "")
	traces := tr.Snapshot()
	if len(traces) != 2 || traces[0].Outcome != "abandoned" {
		t.Fatalf("missed End not sealed as abandoned: %+v", traces)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Begin(0, TraceTrigger{})
	tr.Decide(TraceDecision{})
	tr.Dispatch(TraceDispatch{})
	tr.End(OutcomeExecuted, "")
	if tr.Snapshot() != nil || tr.Len() != 0 || tr.Total() != 0 {
		t.Fatal("nil tracer must record nothing")
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(sb.String()) != "[]" {
		t.Fatalf("nil tracer JSON = %q, want []", sb.String())
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	tr := NewTracer(4)
	tr.Begin(7, TraceTrigger{Kind: "serviceOverloaded", Entity: "app", Minute: 7, AvgLoad: 0.9, WatchedFrom: 3})
	tr.Decide(TraceDecision{Action: "scaleOut", Service: "app", TargetHost: "b3", Applicability: 0.8, HostScore: 0.7})
	tr.Dispatch(TraceDispatch{Host: "b3", Op: "start", Key: "coordinator-000001", Attempts: 1, OK: true})
	tr.End(OutcomeExecuted, "")

	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var back []Trace
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatalf("traces are not valid JSON: %v\n%s", err, sb.String())
	}
	if len(back) != 1 || back[0].Decision == nil ||
		back[0].Decision.Action != "scaleOut" || back[0].Dispatches[0].Key != "coordinator-000001" {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

// TestTracerBeginZeroAlloc pins that opening and sealing a trace — what
// every handled trigger costs the control loop, decision or not —
// allocates nothing, and that the open trace held by the tracer hands
// nothing of one trace to the next.
func TestTracerBeginZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by race instrumentation")
	}
	tr := NewTracer(4)
	tg := TraceTrigger{Kind: "serverIdle", Entity: "b1", Minute: 7}
	if allocs := testing.AllocsPerRun(100, func() {
		tr.Begin(7, tg)
		tr.End(OutcomeNoAction, "")
	}); allocs != 0 {
		t.Fatalf("Begin+End allocates %.1f times per trace, want 0", allocs)
	}
	tr.Begin(8, tg)
	tr.Dispatch(TraceDispatch{Host: "b1", Op: "stop", OK: true})
	tr.Annotate("first")
	tr.End(OutcomeExecuted, "")
	tr.Begin(9, tg)
	tr.End(OutcomeNoAction, "")
	traces := tr.Snapshot()
	first, second := traces[len(traces)-2], traces[len(traces)-1]
	if len(first.Dispatches) != 1 || first.Note != "first" {
		t.Fatalf("sealed trace lost its events: %+v", first)
	}
	if second.Dispatches != nil || second.Note != "" || second.Decision != nil {
		t.Fatalf("a new trace starts with the last one's events: %+v", second)
	}
}
