package agent

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"

	"autoglobe/internal/journal"
	"autoglobe/internal/obs"
	"autoglobe/internal/wire"
)

// Journal record kinds. Every coordinator side effect with a fate the
// restarted incarnation must know about is one of these.
const (
	recEpoch    = "epoch"    // an incarnation began (logs of older builds only)
	recDispatch = "dispatch" // an action is about to leave for an agent
	recAck      = "ack"      // the action's terminal outcome arrived
	recLiveness = "liveness" // a host was confirmed dead or recovered
	recRule     = "rule"     // a rule-base version was activated
)

// RuleActivation is one journaled rule-base activation: the full source
// travels with the record, so a restarted coordinator rebuilds the
// active rule set from the journal alone — no rules directory needed.
type RuleActivation struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	Hash    string `json:"hash"`
	Source  string `json:"source"`
}

// journalRecord is the JSON payload of one WAL record. Exactly the
// fields of its kind are set.
type journalRecord struct {
	Kind   string              `json:"kind"`
	Epoch  uint64              `json:"epoch,omitempty"`
	Action *wire.ActionRequest `json:"action,omitempty"`
	Key    string              `json:"key,omitempty"`
	Ack    *wire.ActionAck     `json:"ack,omitempty"`
	Host   string              `json:"host,omitempty"`
	Dead   bool                `json:"dead,omitempty"`
	Minute int                 `json:"minute,omitempty"`
	Rule   *RuleActivation     `json:"rule,omitempty"`
}

// journalState is what a journal folds to: everything recovery needs,
// compacted. It is the snapshot payload, so the record tail stays short.
type journalState struct {
	Epoch   uint64                    `json:"epoch"`
	Pending []wire.ActionRequest      `json:"pending,omitempty"` // dispatch order
	Down    map[string]int            `json:"down,omitempty"`    // host -> minute confirmed dead
	Rules   map[string]RuleActivation `json:"rules,omitempty"`   // name -> active rule base
}

// CoordinatorJournal is the coordinator's write-ahead action log: a
// typed layer over journal.Journal that records dispatched actions,
// their terminal acks and host liveness transitions, snapshots
// periodically, and rebuilds the in-flight picture on open.
//
// The protocol it implements:
//
//   - Opening the journal starts a new epoch (one higher than any epoch
//     the log has seen) and makes it durable before returning — the
//     snapshot carrying it is the incarnation's lease. Dispatches are
//     stamped with the epoch, and agents NACK actions from superseded
//     epochs, so a not-quite-dead predecessor cannot mutate the
//     landscape.
//   - A dispatch record is fsynced BEFORE the action leaves for the
//     agent (write-ahead). A crash after the record but before (or
//     during, or after) the send leaves the action pending; recovery
//     re-issues it under the same idempotency key, and the agent's
//     applied cache decides whether it runs or is answered from cache.
//     Either way the side effect happens exactly once.
//   - An ack record marks the action's fate known; recovery skips it.
//     EVERY terminal outcome is journaled as an ack record: a clean
//     ack, an agent NACK, and the dispatcher giving up after its retry
//     budget (abandoned — the transaction layer compensates at that
//     point, so a later recovery must not resurrect the rolled-back
//     operation). Acked actions are therefore never lost and never
//     re-run, and the only pending window is a crash between a
//     dispatch record and its terminal record.
//   - Liveness records preserve the demote/re-pool state machine across
//     the crash: a host confirmed dead stays demoted after recovery.
//
// It is safe for concurrent use.
type CoordinatorJournal struct {
	mu   sync.Mutex
	j    *journal.Journal
	dir  string
	opts journal.Options

	epoch   uint64
	pending map[string]wire.ActionRequest // key -> dispatched, fate unknown
	order   []string                      // dispatch order of pending keys
	down    map[string]int                // host -> minute confirmed dead
	rules   map[string]RuleActivation     // name -> active rule base

	appends int
	metrics *journalMetrics
}

// snapshotEvery is how many appended records trigger an automatic
// snapshot-and-prune.
const snapshotEvery = 256

// OpenCoordinatorJournal opens (or creates) the WAL in dir, replays the
// snapshot and tail to rebuild the pending-action and liveness state,
// and durably begins a new epoch: one past every epoch the log has seen,
// written as the snapshot the log restarts from. Every incarnation
// begins here — the first open, a restart in place, a takeover and a
// promoted standby daemon. The previous incarnation's unacked
// dispatches are available through Pending (and re-issued by Recover).
func OpenCoordinatorJournal(dir string, opts journal.Options) (_ *CoordinatorJournal, err error) {
	j, err := journal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			j.Close()
		}
	}()
	snapshot, records := j.Recovered()
	var st journalState
	if snapshot != nil {
		if err := json.Unmarshal(snapshot, &st); err != nil {
			return nil, fmt.Errorf("agent: journal snapshot unreadable: %w", err)
		}
	}
	cj := &CoordinatorJournal{
		j: j, dir: dir, opts: opts,
		epoch:   st.Epoch,
		pending: make(map[string]wire.ActionRequest, len(st.Pending)),
		down:    make(map[string]int, len(st.Down)),
		rules:   make(map[string]RuleActivation, len(st.Rules)),
	}
	for _, req := range st.Pending {
		cj.pending[req.Key] = req
		cj.order = append(cj.order, req.Key)
	}
	maps.Copy(cj.down, st.Down)
	maps.Copy(cj.rules, st.Rules)
	for _, raw := range records {
		var r journalRecord
		if err := json.Unmarshal(raw, &r); err != nil {
			// An intact frame with unparseable JSON is a version skew or
			// a bug, not a torn tail; refuse to guess at the in-flight set.
			return nil, fmt.Errorf("agent: journal record unreadable: %w", err)
		}
		cj.apply(r)
	}
	// This incarnation's lease: durably one past everything seen.
	cj.epoch++
	if err := cj.compactLocked(); err != nil {
		return nil, err
	}
	return cj, nil
}

// apply folds one replayed record into the recovered state.
func (cj *CoordinatorJournal) apply(r journalRecord) {
	switch r.Kind {
	case recEpoch:
		cj.epoch = max(cj.epoch, r.Epoch)
	case recDispatch:
		if r.Action != nil && r.Action.Key != "" {
			if _, dup := cj.pending[r.Action.Key]; !dup {
				cj.order = append(cj.order, r.Action.Key)
			}
			cj.pending[r.Action.Key] = *r.Action
		}
	case recAck:
		delete(cj.pending, r.Key)
	case recLiveness:
		if r.Dead {
			cj.down[r.Host] = r.Minute
		} else {
			delete(cj.down, r.Host)
		}
	case recRule:
		if r.Rule != nil && r.Rule.Name != "" {
			cj.rules[r.Rule.Name] = *r.Rule
		}
	}
}

// append journals one record — one frame, one write, one fsync unless
// the journal was opened NoSync — and snapshots when the tail has grown
// long enough. The record reaches the in-memory state only once it is
// on disk, so Pending and the next snapshot never hold an action whose
// dispatch record failed to append. Callers must NOT hold cj.mu.
func (cj *CoordinatorJournal) append(r journalRecord) error {
	payload, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("agent: journal encode: %w", err)
	}
	cj.mu.Lock()
	defer cj.mu.Unlock()
	if err := cj.j.Append(payload); err != nil {
		return err
	}
	cj.apply(r)
	cj.metrics.appendRecord(r.Kind)
	cj.appends++
	if cj.appends >= snapshotEvery {
		return cj.compactLocked()
	}
	return nil
}

// Instrument attaches an obs registry: journal appends (by kind),
// snapshots, recoveries and re-issued actions are counted. A nil
// registry leaves the journal uninstrumented.
func (cj *CoordinatorJournal) Instrument(r *obs.Registry) {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	cj.metrics = newJournalMetrics(r)
}

// Epoch returns this incarnation's lease token, stamped on every
// dispatched envelope.
func (cj *CoordinatorJournal) Epoch() uint64 {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	return cj.epoch
}

// Dir returns the journal directory (so a new incarnation can reopen it).
func (cj *CoordinatorJournal) Dir() string { return cj.dir }

// Options returns the journal options the log was opened with.
func (cj *CoordinatorJournal) Options() journal.Options { return cj.opts }

// LogDispatch durably records an action about to be sent. It MUST
// return before the action reaches the transport — that ordering is the
// whole write-ahead guarantee.
func (cj *CoordinatorJournal) LogDispatch(req wire.ActionRequest) error {
	if req.Key == "" {
		return fmt.Errorf("agent: journal dispatch without idempotency key")
	}
	return cj.append(journalRecord{Kind: recDispatch, Action: &req})
}

// LogAck durably records an action's terminal outcome (ack or NACK —
// either way the fate is known and recovery must not re-issue it).
func (cj *CoordinatorJournal) LogAck(key string, ack wire.ActionAck) error {
	return cj.append(journalRecord{Kind: recAck, Key: key, Ack: &ack})
}

// LogLiveness durably records a host death or recovery.
func (cj *CoordinatorJournal) LogLiveness(host string, dead bool, minute int) error {
	return cj.append(journalRecord{Kind: recLiveness, Host: host, Dead: dead, Minute: minute})
}

// LogRule durably records a rule-base activation (a version bump of the
// active rule set). The record carries the full source, so recovery can
// rebuild and re-activate the rule base without any other storage.
func (cj *CoordinatorJournal) LogRule(ra RuleActivation) error {
	if ra.Name == "" {
		return fmt.Errorf("agent: journal rule activation without name")
	}
	r := ra
	return cj.append(journalRecord{Kind: recRule, Rule: &r})
}

// ActiveRules returns the journaled active rule set sorted by name —
// what a recovered coordinator re-activates before administering
// anything.
func (cj *CoordinatorJournal) ActiveRules() []RuleActivation {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	out := make([]RuleActivation, 0, len(cj.rules))
	for _, ra := range cj.rules {
		out = append(out, ra)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Pending returns the dispatched actions whose fate is unknown, in
// dispatch order — what a recovered coordinator must re-issue.
func (cj *CoordinatorJournal) Pending() []wire.ActionRequest {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	out := make([]wire.ActionRequest, 0, len(cj.pending))
	for _, key := range cj.order {
		if req, ok := cj.pending[key]; ok {
			out = append(out, req)
		}
	}
	return out
}

// Down returns the hosts the journaled coordinator had confirmed dead,
// sorted, with the minute of the confirmation.
func (cj *CoordinatorJournal) Down() map[string]int {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	out := make(map[string]int, len(cj.down))
	for h, m := range cj.down {
		out[h] = m
	}
	return out
}

// compactLocked checkpoints the current state — pending actions in
// dispatch order — and prunes the record tail it supersedes; the order
// slice sheds the acked keys, and the automatic cadence restarts either
// way. Callers hold cj.mu.
func (cj *CoordinatorJournal) compactLocked() error {
	cj.appends = 0
	st := journalState{Epoch: cj.epoch, Down: cj.down, Rules: cj.rules}
	for _, key := range cj.order {
		if req, ok := cj.pending[key]; ok {
			st.Pending = append(st.Pending, req)
		}
	}
	payload, err := json.Marshal(&st)
	if err != nil {
		return fmt.Errorf("agent: journal snapshot encode: %w", err)
	}
	if err := cj.j.Snapshot(payload); err != nil {
		return err
	}
	cj.metrics.snapshot()
	cj.order = cj.order[:0]
	for _, req := range st.Pending {
		cj.order = append(cj.order, req.Key)
	}
	return nil
}

// Recover re-issues every pending action through the dispatcher, one at
// a time in journal order, under the original idempotency keys: an
// action the agent already applied is answered from its cache (counted
// as a duplicate, not re-executed), an action that never arrived runs
// now. Deadlines are re-minted — the original ones expired with the
// crashed incarnation, and the agent cache answers regardless of
// deadline.
//
// All pending actions are attempted even if some fail; the errors are
// joined. A NACK is terminal (journaled, not retried). A re-issue that
// exhausts the retry budget is journaled abandoned like any other
// dispatch — the host is unreachable, and the liveness detector and
// controller re-plan around it rather than replaying the action
// forever.
func (cj *CoordinatorJournal) Recover(ctx context.Context, d *Dispatcher) (reissued int, err error) {
	pending := cj.Pending()
	cj.metrics.recovery(len(pending))
	var errs []error
	for _, req := range pending {
		req.DeadlineUnixMS = 0 // re-mint: the old deadline died with the old epoch
		_, derr := d.Do(ctx, req)
		var nack *NackError
		switch {
		case derr == nil:
			reissued++
		case errors.As(derr, &nack):
			// Terminal and journaled by the dispatcher; not an error for
			// recovery itself (e.g. the op raced a demotion).
		default:
			errs = append(errs, fmt.Errorf("recover %s %s on %s: %w",
				req.Op, req.InstanceID, req.Host, derr))
		}
	}
	return reissued, errors.Join(errs...)
}

// DownHosts returns the journaled dead hosts sorted by name, for
// deterministic replay into a liveness detector.
func (cj *CoordinatorJournal) DownHosts() []string {
	down := cj.Down()
	out := make([]string, 0, len(down))
	for h := range down {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Close flushes and closes the underlying log. Closing twice is a no-op.
func (cj *CoordinatorJournal) Close() error {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	return cj.j.Close()
}
