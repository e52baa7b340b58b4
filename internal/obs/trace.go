package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// TraceTrigger is the confirmed exceptional situation that opened a
// control-loop iteration (the monitor's trigger, flattened to plain
// values so this package stays dependency-free).
type TraceTrigger struct {
	Kind        string  `json:"kind"`
	Entity      string  `json:"entity"`
	Minute      int     `json:"minute"`
	AvgLoad     float64 `json:"avgLoad"`
	WatchedFrom int     `json:"watchedFrom"`
	Resource    string  `json:"resource,omitempty"`
}

// TraceDecision is the fuzzy controller's resolved decision, including
// the rule provenance from Decision.Explain — the controller's answer
// to "why did AutoGlobe move instance X?".
type TraceDecision struct {
	Action        string  `json:"action"`
	Service       string  `json:"service"`
	InstanceID    string  `json:"instanceID,omitempty"`
	SourceHost    string  `json:"sourceHost,omitempty"`
	TargetHost    string  `json:"targetHost,omitempty"`
	Applicability float64 `json:"applicability"`
	HostScore     float64 `json:"hostScore,omitempty"`
	// Provenance is the rendered rule provenance (one "truth  rule"
	// line per firing rule, strongest first).
	Provenance string `json:"provenance,omitempty"`
}

// TraceDispatch is one per-host dispatch outcome of a decision: the
// operation, how many delivery attempts it took, and whether it was an
// ack, a duplicate ack served from the agent's idempotency cache, a
// NACK, or a transaction compensation (an Undo after partial failure).
type TraceDispatch struct {
	Host         string `json:"host"`
	Op           string `json:"op"`
	Key          string `json:"key,omitempty"`
	InstanceID   string `json:"instanceID,omitempty"`
	Attempts     int    `json:"attempts"`
	OK           bool   `json:"ok"`
	Duplicate    bool   `json:"duplicate,omitempty"`
	Compensation bool   `json:"compensation,omitempty"`
	Error        string `json:"error,omitempty"`
}

// TraceShadow records the shadow evaluation of a candidate rule set
// against the same trigger: what the candidate would have decided and
// which fields disagree with the active decision. Shadow decisions are
// never executed — this is the evidence an administrator watches before
// promoting a candidate rule base.
type TraceShadow struct {
	// Candidate labels the shadow rule set (e.g. "serviceOverloaded@3").
	Candidate string `json:"candidate"`
	// Decision is what the candidate would have done; nil when the
	// candidate found no applicable action.
	Decision *TraceDecision `json:"decision,omitempty"`
	// Diff names the disagreeing fields ("presence", "action", "target",
	// "applicability"); empty means the candidate agreed.
	Diff []string `json:"diff,omitempty"`
}

// Trace outcomes.
const (
	OutcomeExecuted  = "executed"  // a decision was executed (after dispatch, in distributed mode)
	OutcomeQueued    = "queued"    // semi-automatic mode: awaiting administrator confirmation
	OutcomeNoAction  = "no-action" // no applicable remedy was found
	OutcomeProtected = "protected" // the trigger's entity was in protection mode
	OutcomeError     = "error"     // the iteration aborted with an error
)

// Trace records one control-loop iteration end-to-end: the confirmed
// trigger, the fuzzy decision with its rule provenance, every per-host
// dispatch attempt (distributed mode), and the outcome. One trace
// answers "why did AutoGlobe move instance X?".
type Trace struct {
	Seq        uint64          `json:"seq"`
	Minute     int             `json:"minute"`
	Trigger    TraceTrigger    `json:"trigger"`
	Decision   *TraceDecision  `json:"decision,omitempty"`
	Dispatches []TraceDispatch `json:"dispatches,omitempty"`
	Shadow     *TraceShadow    `json:"shadow,omitempty"`
	Outcome    string          `json:"outcome"`
	Note       string          `json:"note,omitempty"`
}

// DefaultTraceCapacity bounds the ring when NewTracer is given no size.
const DefaultTraceCapacity = 256

// Tracer collects traces into a bounded ring buffer. The control loop
// opens a trace per handled trigger (Begin), the controller attaches
// the decision (Decide), the dispatcher appends per-host outcomes
// (Dispatch), and End seals the record. The loop handles one trigger
// at a time, so at most one trace is open; events arriving with no
// open trace are dropped. The open trace is a field of the tracer,
// filled by Begin and copied into the ring when sealed, so opening one
// allocates nothing. The nil tracer is a valid no-op.
type Tracer struct {
	mu     sync.Mutex
	ring   []Trace
	head   int // index of oldest element when full
	n      int // number of valid elements
	seq    uint64
	open   Trace // the open trace, while isOpen
	isOpen bool
}

// NewTracer returns a tracer retaining the most recent capacity traces
// (DefaultTraceCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring: make([]Trace, capacity)}
}

// Begin opens a trace for one control-loop iteration. An already open
// trace is sealed first with outcome "abandoned" — the loop never
// nests iterations, so this only papers over a missed End.
func (t *Tracer) Begin(minute int, tg TraceTrigger) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.isOpen {
		t.sealLocked("abandoned", "")
	}
	t.seq++
	t.open, t.isOpen = Trace{Seq: t.seq, Minute: minute, Trigger: tg}, true
}

// Decide attaches the resolved decision to the open trace. Fallback
// re-resolutions (another host after a failed execution) overwrite the
// previous decision — the sealed trace reports what finally happened.
func (t *Tracer) Decide(d TraceDecision) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.isOpen {
		return
	}
	t.open.Decision = &d
}

// Dispatch appends one per-host dispatch outcome to the open trace.
func (t *Tracer) Dispatch(d TraceDispatch) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.isOpen {
		return
	}
	t.open.Dispatches = append(t.open.Dispatches, d)
}

// Shadow attaches a shadow-evaluation record to the open trace.
func (t *Tracer) Shadow(s TraceShadow) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.isOpen {
		return
	}
	t.open.Shadow = &s
}

// Annotate appends a note to the open trace without sealing it — used
// for mid-iteration observations (e.g. a missing selection rule base)
// that should survive into the sealed record.
func (t *Tracer) Annotate(note string) {
	if t == nil || note == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.isOpen {
		return
	}
	if t.open.Note != "" {
		t.open.Note += "; "
	}
	t.open.Note += note
}

// End seals the open trace with an outcome (see the Outcome constants)
// and an optional note, committing it to the ring.
func (t *Tracer) End(outcome, note string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sealLocked(outcome, note)
}

// sealLocked commits the open trace. Callers hold t.mu.
func (t *Tracer) sealLocked(outcome, note string) {
	if !t.isOpen {
		return
	}
	t.open.Outcome = outcome
	if note != "" {
		t.open.Note = note
	}
	if t.n < len(t.ring) {
		t.ring[(t.head+t.n)%len(t.ring)] = t.open
		t.n++
	} else {
		t.ring[t.head] = t.open
		t.head = (t.head + 1) % len(t.ring)
	}
	t.open, t.isOpen = Trace{}, false // the ring keeps the copy; the tracer pins none of it
}

// Snapshot returns the sealed traces, oldest first.
func (t *Tracer) Snapshot() []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(t.head+i)%len(t.ring)])
	}
	return out
}

// Len returns the number of sealed traces currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Total returns the number of traces ever begun (sealed or open),
// including those the ring has already evicted.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// WriteJSON writes the sealed traces as a JSON array, oldest first.
func (t *Tracer) WriteJSON(w io.Writer) error {
	traces := t.Snapshot()
	if traces == nil {
		traces = []Trace{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traces)
}
