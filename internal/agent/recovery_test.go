package agent

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"autoglobe/internal/journal"
	"autoglobe/internal/monitor"
	"autoglobe/internal/wire"
)

func openTestJournal(t *testing.T, dir string) *CoordinatorJournal {
	t.Helper()
	cj, err := OpenCoordinatorJournal(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return cj
}

func startReq(host, id string) wire.ActionRequest {
	return wire.ActionRequest{Op: wire.OpStart, Host: host, Service: "app", InstanceID: id}
}

// TestRecoveryReissuesLostDispatch: the dispatch record is durable but
// the action never reached the agent — the coordinator died in the
// window between the WAL append and the send. (Every other fate is
// journaled terminally, abandonment included, so this window is the
// ONLY way an action can be pending.) Recovery re-issues it under the
// original key and the operation runs exactly once — now.
func TestRecoveryReissuesLostDispatch(t *testing.T) {
	tr := wire.NewLoopback()
	defer tr.Close()
	a, err := NewAgent("h1", CoordinatorNode, tr)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cj := openTestJournal(t, dir)
	ctx := context.Background()

	req := startReq("h1", "i1")
	req.Key = "coordinator-e1-000001"
	if err := cj.LogDispatch(req); err != nil {
		t.Fatal(err)
	}
	// ...crash: the send never happens.
	if n := len(a.Log()); n != 0 {
		t.Fatalf("agent applied %d ops before recovery, want 0", n)
	}
	if err := cj.Close(); err != nil {
		t.Fatal(err)
	}

	cj2 := openTestJournal(t, dir)
	defer cj2.Close()
	if cj2.Epoch() != cj.Epoch()+1 {
		t.Fatalf("epoch = %d, want %d (one past the dead incarnation)", cj2.Epoch(), cj.Epoch()+1)
	}
	if p := cj2.Pending(); len(p) != 1 || p[0].InstanceID != "i1" {
		t.Fatalf("pending = %+v, want the lost i1 start", p)
	}
	d2 := NewDispatcher(fastDispatch(), tr)
	d2.AttachJournal(cj2)
	reissued, err := cj2.Recover(ctx, d2)
	if err != nil || reissued != 1 {
		t.Fatalf("Recover = (%d, %v), want (1, nil)", reissued, err)
	}
	if got := a.Log(); len(got) != 1 || got[0] != "start i1" {
		t.Fatalf("agent log after recovery = %v, want exactly [start i1]", got)
	}
	// The fate is journaled: the next incarnation has nothing to re-issue.
	if err := cj2.Close(); err != nil {
		t.Fatal(err)
	}
	cj3 := openTestJournal(t, dir)
	defer cj3.Close()
	if p := cj3.Pending(); len(p) != 0 {
		t.Fatalf("pending after recovered run = %+v, want none", p)
	}
}

// TestRecoveryLostAckNotReapplied: the agent applied the operation but
// the coordinator crashed before the ack record could be journaled.
// Recovery re-issues under the original key and the agent's idempotency
// cache answers — the side effect happens once.
func TestRecoveryLostAckNotReapplied(t *testing.T) {
	tr := wire.NewLoopback()
	defer tr.Close()
	a, err := NewAgent("h1", CoordinatorNode, tr)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cj := openTestJournal(t, dir)
	ctx := context.Background()

	req := startReq("h1", "i1")
	req.Key = "coordinator-e1-000001"
	if err := cj.LogDispatch(req); err != nil {
		t.Fatal(err)
	}
	env := wire.NewEnvelope(wire.TypeAction, CoordinatorNode, "h1")
	env.Action = &req
	env.Epoch = cj.Epoch()
	reply, err := tr.Call(ctx, "h1", env)
	if err != nil || reply.Ack == nil || !reply.Ack.OK {
		t.Fatalf("delivery = (%+v, %v), want a clean ack", reply, err)
	}
	// ...crash: the ack never reaches LogAck.
	if got := a.Log(); len(got) != 1 {
		t.Fatalf("agent log = %v, want the single application", got)
	}
	cj.Close() //nolint:errcheck

	cj2 := openTestJournal(t, dir)
	defer cj2.Close()
	d2 := NewDispatcher(fastDispatch(), tr)
	d2.AttachJournal(cj2)
	reissued, err := cj2.Recover(ctx, d2)
	if err != nil || reissued != 1 {
		t.Fatalf("Recover = (%d, %v), want (1, nil)", reissued, err)
	}
	if got := a.Log(); len(got) != 1 {
		t.Fatalf("agent log after recovery = %v: the re-issue was re-executed", got)
	}
	if s := d2.Stats(); s.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1 (answered from the applied cache)", s.Duplicates)
	}
}

// TestAgentFencesStaleEpoch: after a coordinator restart, a straggler
// request from the dead incarnation (lower epoch) is NACKed without
// touching the process table — and the NACK is not cached, so the key
// is not poisoned for legitimate use.
func TestAgentFencesStaleEpoch(t *testing.T) {
	tr := wire.NewLoopback()
	defer tr.Close()
	a, err := NewAgent("h1", CoordinatorNode, tr)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx := context.Background()

	cj1 := openTestJournal(t, dir)
	d1 := NewDispatcher(fastDispatch(), tr)
	d1.AttachJournal(cj1)
	if _, err := d1.Do(ctx, startReq("h1", "i1")); err != nil {
		t.Fatal(err)
	}
	if a.CoordEpoch() != cj1.Epoch() {
		t.Fatalf("agent epoch = %d, want %d", a.CoordEpoch(), cj1.Epoch())
	}
	cj1.Close() //nolint:errcheck

	cj2 := openTestJournal(t, dir)
	defer cj2.Close()
	d2 := NewDispatcher(fastDispatch(), tr)
	d2.AttachJournal(cj2)
	if _, err := d2.Do(ctx, startReq("h1", "i2")); err != nil {
		t.Fatal(err)
	}
	if a.CoordEpoch() != cj2.Epoch() {
		t.Fatalf("agent epoch = %d, want %d after restart traffic", a.CoordEpoch(), cj2.Epoch())
	}

	// The dead incarnation's straggler finally arrives (e.g. released
	// from a healed partition), carrying the superseded epoch.
	env := wire.NewEnvelope(wire.TypeAction, CoordinatorNode, "h1")
	env.Action = &wire.ActionRequest{Key: "stale-1", Op: wire.OpStop, Host: "h1", InstanceID: "i1"}
	env.Epoch = cj1.Epoch()
	reply, err := tr.Call(ctx, "h1", env)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Ack == nil || reply.Ack.OK || !strings.Contains(reply.Ack.Error, "superseded") {
		t.Fatalf("stale-epoch ack = %+v, want a superseded NACK", reply.Ack)
	}
	if !running(a, "i1") {
		t.Fatal("stale stop mutated the process table")
	}
	if a.StaleNacks() != 1 {
		t.Fatalf("staleNacks = %d, want 1", a.StaleNacks())
	}
	// The fence did not poison the key: the live incarnation can use it.
	env2 := wire.NewEnvelope(wire.TypeAction, CoordinatorNode, "h1")
	env2.Action = &wire.ActionRequest{Key: "stale-1", Op: wire.OpStop, Host: "h1", InstanceID: "i1"}
	env2.Epoch = cj2.Epoch()
	reply2, err := tr.Call(ctx, "h1", env2)
	if err != nil || reply2.Ack == nil || !reply2.Ack.OK || reply2.Ack.Duplicate {
		t.Fatalf("current-epoch reuse = (%+v, %v), want a fresh OK", reply2.Ack, err)
	}
	if running(a, "i1") {
		t.Fatal("legitimate stop was not applied")
	}
}

// TestDispatchSurvivesDuplicateDelivery: the network delivers one
// request twice (replayed packet). The agent executes once, answers the
// replay from its idempotency cache, and the caller sees a single
// duplicate-flagged ack — end to end through the real dispatcher.
func TestDispatchSurvivesDuplicateDelivery(t *testing.T) {
	tr := wire.NewLoopback()
	defer tr.Close()
	a, err := NewAgent("h1", CoordinatorNode, tr)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(fastDispatch(), tr)
	tr.DuplicateNext("h1", 1)
	ack, err := d.Do(context.Background(), startReq("h1", "i1"))
	if err != nil {
		t.Fatal(err)
	}
	if !ack.OK || !ack.Duplicate {
		t.Fatalf("ack = %+v, want OK served from the applied cache", ack)
	}
	if got := a.Log(); len(got) != 1 || got[0] != "start i1" {
		t.Fatalf("agent log = %v, want exactly one application", got)
	}
	if s := d.Stats(); s.Duplicates != 1 || s.Retries != 0 {
		t.Fatalf("stats = %+v, want one duplicate, zero retries", s)
	}
	if calls, _ := tr.Stats(); calls != 1 {
		t.Fatalf("transport calls = %d, want 1", calls)
	}
}

// TestDispatcherHonorsCallerDeadline: the caller's context bounds the
// WHOLE retry loop — once it expires mid-backoff no further attempt is
// made, and the error reports the timeout (errors.Is wire.ErrTimeout).
func TestDispatcherHonorsCallerDeadline(t *testing.T) {
	tr := wire.NewLoopback()
	defer tr.Close()
	if _, err := NewAgent("h1", CoordinatorNode, tr); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := fastDispatch()
	cfg.MaxAttempts = 10
	cfg.Sleep = func(time.Duration) { cancel() } // the deadline expires during the first backoff
	d := NewDispatcher(cfg, tr)
	tr.DropNext("h1", 10) // a never-acking host

	_, err := d.Do(ctx, startReq("h1", "i1"))
	if err == nil {
		t.Fatal("want an error from the expired caller deadline")
	}
	if !errors.Is(err, wire.ErrTimeout) {
		t.Fatalf("err = %v, want errors.Is wire.ErrTimeout", err)
	}
	if calls, _ := tr.Stats(); calls != 1 {
		t.Fatalf("transport calls = %d, want 1 (no attempts after expiry)", calls)
	}
	if s := d.Stats(); s.Expired != 1 {
		t.Fatalf("stats = %+v, want the action counted expired", s)
	}

	// A deadline dead on arrival makes no attempt at all and still
	// reports a timeout.
	deadCtx, deadCancel := context.WithCancel(context.Background())
	deadCancel()
	d2 := NewDispatcher(fastDispatch(), tr)
	if _, err := d2.Do(deadCtx, startReq("h1", "i2")); !errors.Is(err, wire.ErrTimeout) {
		t.Fatalf("err = %v, want errors.Is wire.ErrTimeout", err)
	}
	if calls, _ := tr.Stats(); calls != 1 {
		t.Fatalf("transport calls = %d, want still 1", calls)
	}
}

// pendingOfPrefix independently computes the expected pending set of an
// intact journal prefix: dispatch keys not yet matched by an ack.
func pendingOfPrefix(t *testing.T, data []byte) map[string]bool {
	t.Helper()
	payloads, _ := journal.Frames(data)
	pend := make(map[string]bool)
	for _, p := range payloads {
		var r journalRecord
		if err := json.Unmarshal(p, &r); err != nil {
			t.Fatal(err)
		}
		switch r.Kind {
		case recDispatch:
			pend[r.Action.Key] = true
		case recAck:
			delete(pend, r.Key)
		}
	}
	return pend
}

// TestCrashPointSweep is the acceptance sweep: the coordinator is
// "killed" at every journal record boundary AND mid-record (torn tail),
// recovery runs against the surviving agents, and at every single crash
// point (a) the agents' audit logs are byte-identical to the pre-crash
// run — zero duplicate side effects — and (b) the recovered pending set
// is exactly the dispatch-minus-ack set of the intact prefix — zero
// lost acked actions.
func TestCrashPointSweep(t *testing.T) {
	tr := wire.NewLoopback()
	defer tr.Close()
	agents := make(map[string]*Agent)
	for _, h := range []string{"h1", "h2"} {
		a, err := NewAgent(h, CoordinatorNode, tr)
		if err != nil {
			t.Fatal(err)
		}
		agents[h] = a
	}
	dir := t.TempDir()
	cj := openTestJournal(t, dir)
	cfg := fastDispatch()
	d := NewDispatcher(cfg, tr)
	d.AttachJournal(cj)
	ctx := context.Background()

	// A run with every terminal fate represented: clean acks, an
	// applied-but-ack-lost action that expires into a journaled
	// abandonment (its pending window is a mid-sweep cut, not the final
	// state), and a NACK.
	if _, err := d.Do(ctx, startReq("h1", "i1")); err != nil {
		t.Fatal(err)
	}
	tr.DropReplyNext("h2", cfg.MaxAttempts)
	if _, err := d.Do(ctx, startReq("h2", "i2")); err == nil {
		t.Fatal("want expiry: acks for i2 are lost")
	}
	var nack *NackError
	if _, err := d.Do(ctx, wire.ActionRequest{Op: wire.OpStop, Host: "h1", InstanceID: "ghost"}); !errors.As(err, &nack) {
		t.Fatalf("stop of unknown instance: err = %v, want NackError", err)
	}
	if _, err := d.Do(ctx, startReq("h2", "i4")); err != nil {
		t.Fatal(err)
	}
	if err := cj.Close(); err != nil {
		t.Fatal(err)
	}

	baseline := make(map[string][]string)
	for h, a := range agents {
		baseline[h] = a.Log()
	}

	// The whole run lives in one segment beside the open's snapshot;
	// sweep every record boundary and every mid-record cut.
	img := readJournalImage(t, dir)
	payloads, boundaries := journal.Frames(img.data)
	// Every fate is terminal: 4 dispatches + 4 terminal records (two
	// clean acks, i2's abandonment, ghost's NACK). The epoch is in the
	// snapshot.
	if len(payloads) != 8 {
		t.Fatalf("journal has %d records, want 8 for the full run", len(payloads))
	}
	cuts := []int{0}
	prev := 0
	for _, b := range boundaries {
		cuts = append(cuts, (prev+b)/2, b) // torn mid-record, then the clean boundary
		prev = b
	}
	for _, cut := range cuts {
		rj, err := OpenCoordinatorJournal(img.cut(t, cut), journal.Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		want := pendingOfPrefix(t, img.data[:cut])
		got := make(map[string]bool)
		for _, req := range rj.Pending() {
			got[req.Key] = true
		}
		if len(got) != len(want) {
			t.Fatalf("cut %d: pending = %v, want %v", cut, got, want)
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("cut %d: acked-or-dispatched action %s lost from pending set", cut, k)
			}
		}
		d2 := NewDispatcher(cfg, tr)
		d2.AttachJournal(rj)
		if _, err := rj.Recover(ctx, d2); err != nil {
			t.Fatalf("cut %d: recover: %v", cut, err)
		}
		for h, a := range agents {
			if !slices.Equal(a.Log(), baseline[h]) {
				t.Fatalf("cut %d: host %s log changed %v -> %v (duplicate side effect)",
					cut, h, baseline[h], a.Log())
			}
		}
		rj.Close() //nolint:errcheck
	}
}

// journalImage is what a sweep's run leaves on disk: the snapshot its
// open wrote and the one non-empty segment its records went to.
type journalImage struct {
	snapName, seg string
	snap, data    []byte
}

// readJournalImage reads the closed journal directory of a sweep's run.
func readJournalImage(t *testing.T, dir string) journalImage {
	t.Helper()
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots %v (%v), want the open's one", snaps, err)
	}
	img := journalImage{snapName: filepath.Base(snaps[0])}
	if img.snap, err = os.ReadFile(snaps[0]); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		b, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > 0 {
			if img.data != nil {
				t.Fatalf("more than one non-empty segment: %v", segs)
			}
			img.seg, img.data = filepath.Base(s), b
		}
	}
	return img
}

// cut writes the image into a fresh directory with the segment cut at
// byte n: the directory a crash at that point leaves behind.
func (img journalImage) cut(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, img.snapName), img.snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, img.seg), img.data[:n], 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRecoverReissuesInJournalOrder: six actions journaled over three
// hosts, none of them sent, none acked. Recovery re-issues all six one
// at a time in journal order — each host's stop after its start, or it
// would NACK — and leaves nothing for a second recovery to do.
func TestRecoverReissuesInJournalOrder(t *testing.T) {
	tr := wire.NewLoopback()
	defer tr.Close()
	agents := startAgents(t, tr, 3)
	dir := t.TempDir()
	cj := openTestJournal(t, dir)
	want := make(map[string][]string)
	seq := 0
	for _, op := range []wire.Op{wire.OpStart, wire.OpStop} {
		for _, a := range agents {
			seq++
			id := "i-" + a.Host()
			req := wire.ActionRequest{Op: op, Host: a.Host(), Service: "app", InstanceID: id,
				Key: fmt.Sprintf("coordinator-e1-%06d", seq)}
			if err := cj.LogDispatch(req); err != nil {
				t.Fatal(err)
			}
			want[a.Host()] = append(want[a.Host()], string(op)+" "+id)
		}
	}
	if err := cj.Close(); err != nil {
		t.Fatal(err)
	}

	rj := openTestJournal(t, dir)
	defer rj.Close()
	d := NewDispatcher(fastDispatch(), tr)
	d.AttachJournal(rj)
	ctx := context.Background()
	if n, err := rj.Recover(ctx, d); err != nil || n != 6 {
		t.Fatalf("Recover = (%d, %v), want (6, nil)", n, err)
	}
	for _, a := range agents {
		if got := a.Log(); !slices.Equal(got, want[a.Host()]) {
			t.Fatalf("host %s log = %v, want %v (journal order)", a.Host(), got, want[a.Host()])
		}
	}
	if p := rj.Pending(); len(p) != 0 {
		t.Fatalf("pending after recovery = %+v, want none", p)
	}
	if n, err := rj.Recover(ctx, d); err != nil || n != 0 {
		t.Fatalf("second Recover = (%d, %v), want (0, nil)", n, err)
	}
	if st := d.Stats(); st.Actions != 6 {
		t.Fatalf("dispatched %d actions over two recoveries, want 6", st.Actions)
	}
}

// TestJournalStateFollowsDisk: a record whose append fails never reaches
// the in-memory state. A dispatch that could not be journaled was never
// sent, so it must not sit in Pending (the next snapshot would persist
// it and a later recovery re-issue it); an ack that could not be
// journaled leaves its action pending, as it is on disk.
func TestJournalStateFollowsDisk(t *testing.T) {
	cj := openTestJournal(t, t.TempDir())
	sent := startReq("h1", "i1")
	sent.Key = "coordinator-e1-000001"
	if err := cj.LogDispatch(sent); err != nil {
		t.Fatal(err)
	}
	cj.j.Close() //nolint:errcheck // the disk goes away under the journal

	lost := startReq("h1", "i2")
	lost.Key = "coordinator-e1-000002"
	if err := cj.LogDispatch(lost); err == nil || !strings.Contains(err.Error(), "journal: closed") {
		t.Fatalf("LogDispatch on a closed journal = %v, want journal: closed", err)
	}
	if err := cj.LogAck(sent.Key, wire.ActionAck{Key: sent.Key, OK: true}); err == nil {
		t.Fatal("LogAck on a closed journal succeeded")
	}
	if p := cj.Pending(); len(p) != 1 || p[0].Key != sent.Key {
		t.Fatalf("pending = %+v, want exactly the durably dispatched %s", p, sent.Key)
	}
}

// TestFailedTakeoverChangesNothing: a takeover whose journal reopen
// fails returns before anything is rewired — the plane stays with the
// dead leader, no takeover is counted, no agent is redirected — and the
// retry the next minute bumps the epoch once per leader death, not once
// per attempt.
func TestFailedTakeoverChangesNothing(t *testing.T) {
	p, e, _, _ := electionPlane(t, 1)
	for m := 0; m < 3; m++ {
		electionMinute(t, p, e, m)
	}
	dead, cj := e.LeaderNode(), p.Dispatcher().Journal()
	if _, err := e.KillLeader(3); err != nil {
		t.Fatal(err)
	}
	electionMinute(t, p, e, 3) // leaderless
	// Bit rot: a newer snapshot that is not one intact frame, which the
	// reopen refuses to guess past.
	rot := filepath.Join(cj.Dir(), "snap-99999999.snap")
	if err := os.WriteFile(rot, []byte("not a frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := e.Tick(context.Background(), 4); err == nil {
		t.Fatal("a takeover over a corrupt journal succeeded")
	}
	if e.Takeovers() != 0 || e.LeaderNode() != dead || e.LeaderAlive() || e.Epoch() != 1 {
		t.Fatalf("after the failed takeover: %d takeovers, leader %s (alive %v) at epoch %d; want 0, %s dead at 1",
			e.Takeovers(), e.LeaderNode(), e.LeaderAlive(), e.Epoch(), dead)
	}
	if p.Coordinator().Node() != dead || p.Dispatcher().Journal() != cj {
		t.Fatal("the failed takeover rewired the plane")
	}
	for _, host := range p.dep.Cluster().Names() {
		if a := agentOf(t, p, host); a.Coordinator() != dead {
			t.Fatalf("host %s redirected to %q by a failed takeover", host, a.Coordinator())
		}
	}
	if err := os.Remove(rot); err != nil {
		t.Fatal(err)
	}
	electionMinute(t, p, e, 5) // the retry
	if e.Takeovers() != 1 || e.Epoch() != 2 {
		t.Fatalf("retried takeover: %d takeovers at epoch %d, want 1 at 2", e.Takeovers(), e.Epoch())
	}
}

// TestFailedTakeoverKeepsIsolatedLeaderJournaling: a leader deposed by
// isolation is still alive and still wired. A takeover whose reopen
// fails must leave its journal open, so the live leader keeps logging.
func TestFailedTakeoverKeepsIsolatedLeaderJournaling(t *testing.T) {
	p, e, tr, _ := electionPlane(t, 1)
	for m := 0; m < 3; m++ {
		electionMinute(t, p, e, m)
	}
	lead, cj := e.LeaderNode(), p.Dispatcher().Journal()
	tr.Isolate(lead)
	electionMinute(t, p, e, 3) // isolated: the standby's lease lapses
	rot := filepath.Join(cj.Dir(), "snap-99999999.snap")
	if err := os.WriteFile(rot, []byte("not a frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := e.Tick(context.Background(), 4); err == nil {
		t.Fatal("a takeover over a corrupt journal succeeded")
	}
	if e.Takeovers() != 0 || p.Dispatcher().Journal() != cj {
		t.Fatalf("after the failed takeover: %d takeovers, journal rewired %v", e.Takeovers(), p.Dispatcher().Journal() != cj)
	}
	if err := cj.LogLiveness("h1", true, 4); err != nil {
		t.Fatalf("the live leader cannot journal after a failed takeover: %v", err)
	}
}

// TestOpenOlderBuildJournal: a group directory written before the epoch
// moved into the open's snapshot holds epoch records and a standby
// journal per member under standby-<i>/. It opens one past its highest
// epoch with its pending dispatch, and the nested directory is ignored.
func TestOpenOlderBuildJournal(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	req := startReq("h1", "i-old")
	req.Key = "coordinator-e5-000001"
	for _, r := range []journalRecord{
		{Kind: recEpoch, Epoch: 4},
		{Kind: recEpoch, Epoch: 5},
		{Kind: recDispatch, Action: &req},
	} {
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	sj, err := journal.Open(filepath.Join(dir, "standby-1"), journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sj.Append([]byte(`{"kind":"epoch","epoch":9}`)); err != nil {
		t.Fatal(err)
	}
	sj.Close()

	cj := openTestJournal(t, dir)
	if got := cj.Epoch(); got != 6 {
		t.Fatalf("epoch = %d, want 6 (one past the log's highest)", got)
	}
	if p := cj.Pending(); len(p) != 1 || p[0].Key != req.Key {
		t.Fatalf("pending = %+v, want the one dispatch %s", p, req.Key)
	}
	cj.Close()
	// The open's snapshot carries the epoch: a second open needs no record.
	cj = openTestJournal(t, dir)
	defer cj.Close()
	if got := cj.Epoch(); got != 7 {
		t.Fatalf("reopened epoch = %d, want 7", got)
	}
}

// TestPlaneCrashCoordinator drives the whole-plane crash/restart cycle:
// pending actions are re-issued through the agents' caches, the epoch
// fences the dead incarnation, and journaled host deaths survive into
// the restarted liveness detector.
func TestPlaneCrashCoordinator(t *testing.T) {
	dep := testDeployment(t)
	lms, err := monitor.NewSystem(monitor.Params{OverloadThreshold: 0.70, OverloadWatch: 2,
		IdleThresholdBase: 0.125, IdleWatch: 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := wire.NewLoopback()
	defer tr.Close()
	p, err := NewPlane(PlaneConfig{Transport: tr, Dispatch: fastDispatch()}, dep, lms)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	down, reissued, err := p.AttachJournal(ctx, t.TempDir(), journal.Options{NoSync: true})
	if err != nil || len(down) != 0 || reissued != 0 {
		t.Fatalf("fresh AttachJournal = (%v, %d, %v), want empty", down, reissued, err)
	}
	cjnl := p.Dispatcher().Journal()
	epoch1 := cjnl.Epoch()

	// One applied-but-unacked action (the crash lands between the
	// agent's apply and the coordinator's ack record) and one journaled
	// host death.
	req := startReq("h3", "i-x")
	req.Key = "coordinator-e1-000001"
	if err := cjnl.LogDispatch(req); err != nil {
		t.Fatal(err)
	}
	env := wire.NewEnvelope(wire.TypeAction, CoordinatorNode, "h3")
	env.Action = &req
	env.Epoch = epoch1
	if reply, err := tr.Call(ctx, "h3", env); err != nil || reply.Ack == nil || !reply.Ack.OK {
		t.Fatalf("delivery = (%+v, %v), want a clean ack", reply, err)
	}
	if err := cjnl.LogLiveness("h2", true, 7); err != nil {
		t.Fatal(err)
	}

	reissued, err = p.CrashCoordinator(ctx)
	if err != nil || reissued != 1 {
		t.Fatalf("CrashCoordinator = (%d, %v), want (1, nil)", reissued, err)
	}
	if e := p.Dispatcher().Journal().Epoch(); e != epoch1+1 {
		t.Fatalf("epoch after crash = %d, want %d", e, epoch1+1)
	}
	a3, _ := p.Agent("h3")
	if got := a3.Log(); len(got) != 1 || got[0] != "start i-x" {
		t.Fatalf("h3 log = %v, want the single pre-crash application", got)
	}
	if a3.CoordEpoch() != epoch1+1 {
		t.Fatalf("h3 sees epoch %d, want %d", a3.CoordEpoch(), epoch1+1)
	}
	// The journaled death survived the restart: h2 stays demoted until
	// it earns its recovery streak.
	if p.Coordinator().Liveness().Tracking("h2") {
		t.Fatal("journaled dead host re-entered the landscape on restart")
	}
	if downHosts := p.Coordinator().Liveness().Down(); !slices.Contains(downHosts, "h2") {
		t.Fatalf("down = %v, want h2 demoted", downHosts)
	}
}
