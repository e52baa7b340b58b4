package agent

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"autoglobe/internal/archive"
	"autoglobe/internal/controller"
	"autoglobe/internal/journal"
	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/rules"
	"autoglobe/internal/wire"
)

// electionPlane wires a plane with a journal and n standbys over a
// loopback, ready for minute-driven failover tests.
func electionPlane(t *testing.T, n int) (*Plane, *Election, *wire.Loopback, *monitor.System) {
	t.Helper()
	dep := testDeployment(t)
	lms, err := monitor.NewSystem(monitor.PaperParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := wire.NewLoopback()
	t.Cleanup(func() { tr.Close() })
	p, err := NewPlane(PlaneConfig{Transport: tr, Dispatch: fastDispatch()}, dep, lms)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.AttachJournal(context.Background(), t.TempDir(), journal.Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	e, err := p.AttachStandbys(n, ElectionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return p, e, tr, lms
}

// electionMinute drives one simulated minute: election tick, every
// host's heartbeat report, and — when a leader is up — the minute
// close on the current leader.
func electionMinute(t *testing.T, p *Plane, e *Election, minute int) {
	t.Helper()
	ctx := context.Background()
	if err := e.Tick(ctx, minute); err != nil {
		t.Fatalf("minute %d: tick: %v", minute, err)
	}
	for _, host := range p.dep.Cluster().Names() {
		rep, ok := p.Reporter(host)
		if !ok {
			t.Fatalf("no reporter for %s", host)
		}
		rep.Begin(minute, 0.4, 0.3)
		for _, inst := range p.dep.InstancesOn(host) {
			rep.Sample(inst.ID, inst.Service, 0.4)
		}
		sendCtx, cancel := context.WithTimeout(ctx, time.Second)
		_ = rep.Send(sendCtx) // failures buffer; that is the point
		cancel()
	}
	if !e.LeaderAlive() {
		return
	}
	if err := p.Coordinator().ObserveServices(minute); err != nil {
		t.Fatalf("minute %d: observe: %v", minute, err)
	}
}

// TestElectionFailover kills the leader and walks the full takeover:
// one leaderless minute of buffered reports, a standby bumping the
// epoch and announcing itself, agents redirecting and draining their
// backlog — no heartbeat minute lost — and the killed member rejoining
// as a standby after its restart delay.
func TestElectionFailover(t *testing.T) {
	p, e, _, lms := electionPlane(t, 2)
	for m := 0; m < 3; m++ {
		electionMinute(t, p, e, m)
	}
	origLeader := e.LeaderNode()
	if got := e.Epoch(); got != 1 {
		t.Fatalf("pre-kill epoch = %d, want 1", got)
	}

	killed, err := e.KillLeader(3)
	if err != nil || !killed {
		t.Fatalf("KillLeader = (%v, %v), want (true, nil)", killed, err)
	}
	electionMinute(t, p, e, 3) // leaderless: reports buffer
	if e.LeaderAlive() {
		t.Fatal("leader reported alive right after the kill")
	}
	for _, host := range p.dep.Cluster().Names() {
		rep, _ := p.Reporter(host)
		if rep.Buffered() != 1 {
			t.Fatalf("host %s buffered %d minutes during the leaderless window, want 1", host, rep.Buffered())
		}
	}

	electionMinute(t, p, e, 4) // lease lapses: takeover, redirect, drain
	if got := e.Takeovers(); got != 1 {
		t.Fatalf("takeovers = %d, want 1", got)
	}
	if e.LeaderNode() == origLeader {
		t.Fatal("takeover kept the dead leader wired")
	}
	if got := e.Epoch(); got != 2 {
		t.Fatalf("post-takeover epoch = %d, want 2 (exactly one bump per kill)", got)
	}
	for _, host := range p.dep.Cluster().Names() {
		a, _ := p.Agent(host)
		if a.Coordinator() != e.LeaderNode() {
			t.Fatalf("host %s still reports to %q, want redirect to %q", host, a.Coordinator(), e.LeaderNode())
		}
		rep, _ := p.Reporter(host)
		if rep.Buffered() != 0 {
			t.Fatalf("host %s still buffers %d minutes after the redirect", host, rep.Buffered())
		}
	}
	// The leaderless minute was backfilled: the archive has an
	// observation in every slot, the day profile is gap-free.
	arch := lms.Archive()
	for _, host := range p.dep.Cluster().Names() {
		for m := 0; m <= 4; m++ {
			if n := arch.Entity(archive.HostEntity(host)).ObservationCount(m); n != 1 {
				t.Fatalf("host %s minute %d observed %d times, want 1", host, m, n)
			}
		}
	}

	for m := 5; m <= 6; m++ {
		electionMinute(t, p, e, m)
	}
	roles := e.Members()
	if roles[origLeader] != "standby" {
		t.Fatalf("killed leader is %q after the restart delay, want standby (roles %v)", roles[origLeader], roles)
	}
	if roles[e.LeaderNode()] != "leader" {
		t.Fatalf("wired leader role = %q, want leader", roles[e.LeaderNode()])
	}
}

// TestElectionIsolatedLeaderFenced is the split-brain drill: the
// leader is partitioned, not killed. A successor is elected while the
// old leader still believes it leads; when the partition heals, its
// first beacon is rebuffed by the agents' epoch fence and it steps
// down to standby — no post-fence mutation, no split brain.
func TestElectionIsolatedLeaderFenced(t *testing.T) {
	p, e, tr, _ := electionPlane(t, 2)
	for m := 0; m < 3; m++ {
		electionMinute(t, p, e, m)
	}
	origLeader := e.LeaderNode()
	tr.Isolate(origLeader)
	electionMinute(t, p, e, 3) // isolated: beacons and reports vanish
	electionMinute(t, p, e, 4) // takeover
	if got := e.Takeovers(); got != 1 {
		t.Fatalf("takeovers = %d, want 1", got)
	}
	roles := e.Members()
	if roles[origLeader] != "leader" {
		t.Fatalf("isolated leader role = %q, want leader (it cannot know it was deposed)", roles[origLeader])
	}

	tr.Heal(origLeader)
	electionMinute(t, p, e, 5) // healed: its beacon is fenced, it steps down
	if got := e.FencedDepositions(); got != 1 {
		t.Fatalf("fenced depositions = %d, want 1", got)
	}
	if roles := e.Members(); roles[origLeader] != "standby" {
		t.Fatalf("deposed leader role = %q, want standby (roles %v)", roles[origLeader], roles)
	}
	fenced := 0
	for _, host := range p.dep.Cluster().Names() {
		a, _ := p.Agent(host)
		fenced += a.StaleNacks()
		if a.Coordinator() != e.LeaderNode() {
			t.Fatalf("host %s reports to %q after the heal, want %q", host, a.Coordinator(), e.LeaderNode())
		}
	}
	if fenced == 0 {
		t.Fatal("no agent fenced the deposed leader's beacon")
	}
	if got := e.Takeovers(); got != 1 {
		t.Fatalf("takeovers after heal = %d, want still 1 (stepping down is not a takeover)", got)
	}
}

// leaseCalls reads how many lease beacons a loopback instrumented with
// reg has carried.
func leaseCalls(reg *obs.Registry) float64 {
	return reg.Snapshot()[wire.MetricCalls+`{transport="loopback",type="lease"}`]
}

// TestElectionQuietLeadership: once every agent's beat proves it
// follows the leader under the leader's epoch, a minute's renewals are
// exactly the standbys' leases — members − 1 — and the founding minute
// is the only one that beacons every agent.
func TestElectionQuietLeadership(t *testing.T) {
	p, e, tr, _ := electionPlane(t, 2)
	reg := obs.NewRegistry()
	tr.Instrument(reg)
	p.Instrument(reg)
	agents := float64(len(p.dep.Cluster().Names()))
	prev := 0.0
	for m := 0; m < 6; m++ {
		electionMinute(t, p, e, m)
		want := 2.0
		if m == 0 {
			want += agents
		}
		if got := leaseCalls(reg) - prev; got != want {
			t.Fatalf("minute %d: %v lease calls, want %v", m, got, want)
		}
		prev = leaseCalls(reg)
	}
	snap := reg.Snapshot()
	if got := snap[MetricElectionBeacons+`{to="member"}`]; got != 12 {
		t.Fatalf("member beacons = %v, want 12", got)
	}
	if got := snap[MetricElectionBeacons+`{to="agent"}`]; got != agents {
		t.Fatalf("agent beacons = %v, want %v (the founding minute only)", got, agents)
	}
}

// TestElectionLostAnnouncement: the takeover's announcement to one agent
// is lost. That agent keeps reporting to the dead leader, so no beat of
// it proves it follows the successor, and it is beaconed again the next
// minute: it redirects and drains, and nobody else is renewed. No
// host-minute is observed twice; the lost agent's minutes the successor
// closed without it stay empty, as they would with a renewal every
// minute.
func TestElectionLostAnnouncement(t *testing.T) {
	p, e, tr, lms := electionPlane(t, 2)
	reg := obs.NewRegistry()
	p.Instrument(reg)
	agentBeacons := func() float64 { return reg.Snapshot()[MetricElectionBeacons+`{to="agent"}`] }
	for m := 0; m < 3; m++ {
		electionMinute(t, p, e, m)
	}
	if _, err := e.KillLeader(3); err != nil {
		t.Fatal(err)
	}
	electionMinute(t, p, e, 3) // leaderless
	const lost = "h2"
	tr.DropNext(lost, 1)
	before := agentBeacons()
	electionMinute(t, p, e, 4) // takeover: every agent is announced to
	hosts := p.dep.Cluster().Names()
	if got := agentBeacons() - before; got != float64(len(hosts)) {
		t.Fatalf("takeover beaconed %v agents, want all %d", got, len(hosts))
	}
	a := agentOf(t, p, lost)
	if a.Coordinator() == e.LeaderNode() {
		t.Fatal("the agent whose announcement was lost redirected anyway")
	}
	before = agentBeacons()
	electionMinute(t, p, e, 5)
	if got := agentBeacons() - before; got != 1 {
		t.Fatalf("minute after the takeover beaconed %v agents, want 1 (%s)", got, lost)
	}
	if a.Coordinator() != e.LeaderNode() || a.CoordEpoch() != e.Epoch() {
		t.Fatalf("%s follows %q at epoch %d, want %q at %d", lost, a.Coordinator(), a.CoordEpoch(), e.LeaderNode(), e.Epoch())
	}
	if rep, _ := p.Reporter(lost); rep.Buffered() != 0 {
		t.Fatalf("%s still buffers %d minutes", lost, rep.Buffered())
	}
	before = agentBeacons()
	electionMinute(t, p, e, 6)
	if got := agentBeacons() - before; got != 0 {
		t.Fatalf("a quiet minute beaconed %v agents", got)
	}
	arch := lms.Archive()
	for _, host := range hosts {
		for m := 0; m <= 6; m++ {
			want := 1
			if host == lost && (m == 3 || m == 4) {
				want = 0 // closed by the successor before the agent redirected
			}
			if n := arch.Entity(archive.HostEntity(host)).ObservationCount(m); n != want {
				t.Fatalf("host %s minute %d observed %d times, want %d", host, m, n, want)
			}
		}
	}
}

// TestElectionStaleStampBeaconed: a beat stamped with an epoch older
// than the leader's, or with 0 (an agent that never heard a lease), does
// not excuse its agent from the renewal. The epoch-0 agent is beaconed,
// learns the leader and its epoch, and from then on NACKs an action of
// the superseded incarnation.
func TestElectionStaleStampBeaconed(t *testing.T) {
	p, e, tr, _ := electionPlane(t, 1)
	reg := obs.NewRegistry()
	p.Instrument(reg)
	for m := 0; m < 3; m++ {
		electionMinute(t, p, e, m)
	}
	if _, err := e.KillLeader(3); err != nil {
		t.Fatal(err)
	}
	for m := 3; m < 6; m++ {
		electionMinute(t, p, e, m)
	}
	leader, epoch := e.LeaderNode(), e.Epoch()
	if epoch != 2 {
		t.Fatalf("epoch after the takeover = %d, want 2", epoch)
	}
	ctx := context.Background()
	// h1's minute-5 beat arrives again, stamped with the old epoch.
	stale := wire.HeartbeatEnvelope("h1", leader, wire.Heartbeat{Host: "h1", Minute: 5, CPU: 0.4, Mem: 0.3})
	stale.Epoch = epoch - 1
	if reply, err := tr.Call(ctx, leader, stale); err != nil {
		t.Fatal(err)
	} else {
		wire.ReleaseEnvelope(reply)
	}
	// A host attached late has heard no lease: its beat carries epoch 0.
	if err := p.AttachHost("h9"); err != nil {
		t.Fatal(err)
	}
	late := agentOf(t, p, "h9")
	rep := late.Reporter()
	rep.Begin(5, 0.1, 0.1)
	if err := rep.Send(ctx); err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot()[MetricElectionBeacons+`{to="agent"}`]
	if err := e.Tick(ctx, 6); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot()[MetricElectionBeacons+`{to="agent"}`] - before; got != 2 {
		t.Fatalf("beaconed %v agents, want 2 (h1 and h9)", got)
	}
	if late.CoordEpoch() != epoch || late.Coordinator() != leader {
		t.Fatalf("h9 follows %q at epoch %d, want %q at %d", late.Coordinator(), late.CoordEpoch(), leader, epoch)
	}
	req := startReq("h9", "i9")
	req.Key = "stale-1"
	act := wire.NewEnvelope(wire.TypeAction, "old-leader", "h9")
	act.Action = &req
	act.Epoch = epoch - 1
	reply, err := tr.Call(ctx, "h9", act)
	if err != nil {
		t.Fatal(err)
	}
	defer wire.ReleaseEnvelope(reply)
	if reply.Ack == nil || reply.Ack.OK || late.StaleNacks() != 1 || running(late, "i9") {
		t.Fatalf("stale-epoch action answered %+v (stale NACKs %d), want a NACK", reply.Ack, late.StaleNacks())
	}
}

// TestFollowsKeepsNewestBeat: the slot's record is the newest minute's
// beat — a held older beat delivered late does not regress it — and
// Forget drops it.
func TestFollowsKeepsNewestBeat(t *testing.T) {
	tr := wire.NewLoopback()
	t.Cleanup(func() { tr.Close() })
	coord, err := NewCoordinator(CoordinatorNode, testDeployment(t), sessionSystem(t), tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	beat := func(minute int, epoch uint64) {
		env := wire.HeartbeatEnvelope("h1", CoordinatorNode, wire.Heartbeat{Host: "h1", Minute: minute, CPU: 0.4, Mem: 0.3})
		env.Epoch = epoch
		reply, err := coord.Handle(env)
		if err != nil {
			t.Fatal(err)
		}
		wire.ReleaseEnvelope(reply)
	}
	beat(5, 2)
	beat(3, 1) // held since minute 3, under the previous epoch
	if !coord.Follows("h1", 5, 2) || coord.Follows("h1", 6, 2) || coord.Follows("h1", 5, 1) {
		t.Fatal("the record is not minute 5 at epoch 2")
	}
	coord.Forget("h1")
	if coord.Follows("h1", 5, 2) {
		t.Fatal("a forgotten host still follows")
	}
}

// TestTakeoverKeepsMetricsCounting: a successor coordinator and journal
// count into the registry the plane was instrumented with — heartbeats
// ingested after the takeover and the dispatch journaled by the new
// leader show on the same series.
func TestTakeoverKeepsMetricsCounting(t *testing.T) {
	p, e, _, _ := electionPlane(t, 2)
	reg := obs.NewRegistry()
	p.Instrument(reg)
	for m := 0; m < 3; m++ {
		electionMinute(t, p, e, m)
	}
	if _, err := e.KillLeader(3); err != nil {
		t.Fatal(err)
	}
	for m := 3; m < 6; m++ {
		electionMinute(t, p, e, m)
	}
	if e.Takeovers() != 1 {
		t.Fatalf("takeovers = %d, want 1", e.Takeovers())
	}
	if _, err := p.Dispatcher().Do(context.Background(), startReq("h3", "i-after")); err != nil {
		t.Fatal(err)
	}
	ingested := 0
	for _, m := range e.members {
		ingested += m.coord.Heartbeats()
	}
	snap := reg.Snapshot()
	if got := snap[MetricHeartbeats]; got != float64(ingested) {
		t.Fatalf("%s = %v, want %d (every member's ingest)", MetricHeartbeats, got, ingested)
	}
	for _, kind := range []string{recDispatch, recAck} {
		if got := snap[MetricJournalAppends+`{kind="`+kind+`"}`]; got != 1 {
			t.Fatalf("journal %s appends = %v, want 1 (the new leader's)", kind, got)
		}
	}
}

// TestLeaderDeathCrashPointSweep is the takeover acceptance sweep: the
// leader's journal is cut at every record boundary AND mid-record, the
// successor reopens the cut directory — a takeover begins its
// incarnation exactly as a restart does — and recovers. At every cut
// the successor's epoch is one past the leader's, its pending set is
// exactly the dispatch-minus-ack set of the intact prefix (zero lost
// acked actions) and the agents' audit logs never change (zero
// duplicated side effects).
func TestLeaderDeathCrashPointSweep(t *testing.T) {
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
			t.Fatalf("cut %d: takeover open: %v", cut, err)
		}
		if got, want := rj.Epoch(), cj.Epoch()+1; got != want {
			t.Fatalf("cut %d: takeover epoch = %d, want %d (exactly one bump)", cut, got, want)
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

// TestSuccessorServesRuleAdmin: rules attached after the standbys, as
// the manager attaches them, reach every successor — an activated push
// to the new leader succeeds and is journaled.
func TestSuccessorServesRuleAdmin(t *testing.T) {
	p, e, tr, lms := electionPlane(t, 1)
	ctl, err := controller.New(controller.Config{}, p.dep, lms.Archive(),
		controller.NewDeploymentExecutor(p.dep, controller.StickyUsers))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AttachRules(rules.New(controller.RuleVocabulary), ctl); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 3; m++ {
		electionMinute(t, p, e, m)
	}
	if _, err := e.KillLeader(3); err != nil {
		t.Fatal(err)
	}
	for m := 3; m < 5; m++ {
		electionMinute(t, p, e, m)
	}
	if e.Takeovers() != 1 {
		t.Fatalf("takeovers = %d, want 1", e.Takeovers())
	}
	leader := e.LeaderNode()
	reply, err := tr.Call(context.Background(), leader, wire.RulePutEnvelope("admin", leader,
		wire.RulePut{Name: "serviceOverloaded", Source: pushedSrc, Activate: true}))
	if err != nil {
		t.Fatal(err)
	}
	defer wire.ReleaseEnvelope(reply)
	if reply.RulePut == nil || reply.RulePut.Error != "" || reply.RulePut.Version != 1 {
		t.Fatalf("activated push to the successor %s: %+v", leader, reply.RulePut)
	}
	if got := p.Dispatcher().Journal().ActiveRules(); len(got) != 1 || got[0].Name != "serviceOverloaded" {
		t.Fatalf("journaled rule set = %+v, want the activation", got)
	}
}

// TestKillLeaderOverHTTP: a killed leader goes quiet on a real network
// too — a heartbeat to it fails — and after DefaultRestartAfter minutes its
// member listens again and answers.
func TestKillLeaderOverHTTP(t *testing.T) {
	dep := testDeployment(t)
	lms, err := monitor.NewSystem(monitor.PaperParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := wire.NewHTTP()
	t.Cleanup(func() { tr.Close() })
	p, err := NewPlane(PlaneConfig{Transport: tr, Dispatch: fastDispatch()}, dep, lms)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := p.AttachJournal(ctx, t.TempDir(), journal.Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	e, err := p.AttachStandbys(1, ElectionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 2; m++ {
		electionMinute(t, p, e, m)
	}
	dead := e.LeaderNode()
	call := func(env *wire.Envelope) error {
		reply, err := tr.Call(ctx, dead, env)
		wire.ReleaseEnvelope(reply)
		return err
	}
	probe := func() *wire.Envelope { return wire.LeaseEnvelope("probe", dead, wire.Lease{Leader: "probe"}) }
	if err := call(probe()); err != nil {
		t.Fatalf("live leader unreachable: %v", err)
	}
	if killed, err := e.KillLeader(2); err != nil || !killed {
		t.Fatalf("KillLeader = (%v, %v), want (true, nil)", killed, err)
	}
	if err := call(wire.HeartbeatEnvelope("h1", dead, wire.Heartbeat{Host: "h1", Minute: 2, CPU: 0.4, Mem: 0.3})); err == nil {
		t.Fatal("the killed leader still takes heartbeats")
	}
	for m := 2; m <= 2+DefaultRestartAfter; m++ {
		electionMinute(t, p, e, m)
	}
	if roles := e.Members(); roles[dead] != "standby" {
		t.Fatalf("killed leader is %q after DefaultRestartAfter, want standby (roles %v)", roles[dead], roles)
	}
	if err := call(probe()); err != nil {
		t.Fatalf("the restarted member does not answer: %v", err)
	}
}

// TestReporterBuffersAndDrains: a report the transport loses is parked
// in the reporter's bounded ring and delivered — oldest first, to the
// CURRENT coordinator — by the next successful Send, so no minute is
// lost to a transient outage.
func TestReporterBuffersAndDrains(t *testing.T) {
	tr := wire.NewLoopback()
	defer tr.Close()
	var gotMinutes []int
	if err := tr.Listen(CoordinatorNode, func(env *wire.Envelope) (*wire.Envelope, error) {
		gotMinutes = append(gotMinutes, env.Heartbeat.Minute)
		return wire.AcquireAckEnvelope(CoordinatorNode, env.From, wire.ActionAck{OK: true}), nil
	}); err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent("h1", CoordinatorNode, tr)
	if err != nil {
		t.Fatal(err)
	}
	rep := a.Reporter()
	ctx := context.Background()

	send := func(minute int) error {
		rep.Begin(minute, 0.5, 0.5)
		rep.Sample("i1", "app", 0.5)
		return rep.Send(ctx)
	}
	if err := send(0); err != nil {
		t.Fatal(err)
	}
	tr.DropNext(CoordinatorNode, 2)
	if err := send(1); err == nil {
		t.Fatal("want delivery failure for minute 1")
	}
	if err := send(2); err == nil {
		t.Fatal("want delivery failure for minute 2")
	}
	if got := rep.Buffered(); got != 2 {
		t.Fatalf("buffered = %d, want 2", got)
	}
	if err := send(3); err != nil {
		t.Fatalf("drain send: %v", err)
	}
	if got := rep.Buffered(); got != 0 {
		t.Fatalf("buffered after drain = %d, want 0", got)
	}
	if want := []int{0, 1, 2, 3}; !slices.Equal(gotMinutes, want) {
		t.Fatalf("delivered minutes %v, want %v (buffered minutes drain oldest first)", gotMinutes, want)
	}

	// The ring is bounded: a long outage keeps the newest
	// reporterBufferCap minutes and drops the oldest.
	tr.DropNext(CoordinatorNode, reporterBufferCap+3)
	for m := 4; m < 4+reporterBufferCap+3; m++ {
		if err := send(m); err == nil {
			t.Fatalf("minute %d: want delivery failure", m)
		}
	}
	if got := rep.Buffered(); got != reporterBufferCap {
		t.Fatalf("buffered = %d, want cap %d", got, reporterBufferCap)
	}
}

// TestReporterBoundedRetry: with SetRetry the reporter redelivers
// within one Send — backing off between attempts — and only parks the
// report once the attempts are exhausted.
func TestReporterBoundedRetry(t *testing.T) {
	tr := wire.NewLoopback()
	defer tr.Close()
	if err := tr.Listen(CoordinatorNode, func(env *wire.Envelope) (*wire.Envelope, error) {
		return wire.AcquireAckEnvelope(CoordinatorNode, env.From, wire.ActionAck{OK: true}), nil
	}); err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent("h1", CoordinatorNode, tr)
	if err != nil {
		t.Fatal(err)
	}
	rep := a.Reporter()
	var slept []time.Duration
	rep.SetRetry(2, 10*time.Millisecond, func(d time.Duration) { slept = append(slept, d) })
	ctx := context.Background()

	tr.DropNext(CoordinatorNode, 2)
	rep.Begin(0, 0.5, 0.5)
	if err := rep.Send(ctx); err != nil {
		t.Fatalf("send with retries: %v", err)
	}
	if rep.Buffered() != 0 {
		t.Fatalf("buffered = %d after in-call retry success, want 0", rep.Buffered())
	}
	if want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}; !slices.Equal(slept, want) {
		t.Fatalf("backoffs = %v, want %v", slept, want)
	}

	// All attempts exhausted: the report parks and the error surfaces.
	tr.DropNext(CoordinatorNode, 3)
	rep.Begin(1, 0.5, 0.5)
	if err := rep.Send(ctx); err == nil {
		t.Fatal("want failure after exhausting retries")
	}
	if rep.Buffered() != 1 {
		t.Fatalf("buffered = %d after exhausted retries, want 1", rep.Buffered())
	}
}
