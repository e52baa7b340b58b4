package agent

import (
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"autoglobe/internal/archive"
	"autoglobe/internal/cluster"
	"autoglobe/internal/controller"
	"autoglobe/internal/journal"
	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/service"
	"autoglobe/internal/wire"
)

// spiedFrame is one heartbeat call as the reporter made it.
type spiedFrame struct {
	host, to string
	minute   int
	indexed  bool // went out as numbers
	resync   bool // refused: the node does not hold the session
	err      error
}

// frameSpy is a binary loopback that notes every heartbeat call's frame
// form. Embedding forwards Listen, Unlisten and the fault hooks.
type frameSpy struct {
	*wire.Loopback
	frames []spiedFrame
}

func newFrameSpy(t *testing.T) *frameSpy {
	s := &frameSpy{Loopback: wire.NewLoopback()}
	s.SetCodec(wire.CodecBinary)
	t.Cleanup(func() { s.Close() })
	return s
}

func (s *frameSpy) Call(ctx context.Context, node string, env *wire.Envelope) (*wire.Envelope, error) {
	if env.Type != wire.TypeHeartbeat {
		return s.Loopback.Call(ctx, node, env)
	}
	f := spiedFrame{host: env.From, to: node, minute: env.Heartbeat.Minute, indexed: env.Heartbeat.Indexed()}
	reply, err := s.Loopback.Call(ctx, node, env)
	f.err = err
	f.resync = reply != nil && reply.Ack != nil && reply.Ack.Resync
	s.frames = append(s.frames, f)
	return reply, err
}

// take returns the frames spied since the last call.
func (s *frameSpy) take() []spiedFrame {
	out := s.frames
	s.frames = nil
	return out
}

// forms renders frames as "host@minute:form" words, form one of named,
// indexed, resync, lost.
func forms(frames []spiedFrame) string {
	var words []string
	for _, f := range frames {
		form := "named"
		switch {
		case f.err != nil:
			form = "lost"
		case f.resync:
			form = "resync"
		case f.indexed:
			form = "indexed"
		}
		words = append(words, fmt.Sprintf("%s@%d:%s", f.host, f.minute, form))
	}
	return strings.Join(words, " ")
}

func sessionSystem(t *testing.T) *monitor.System {
	t.Helper()
	lms, err := monitor.NewSystem(monitor.PaperParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return lms
}

func sessionPlane(t *testing.T, tr wire.Transport, dep *service.Deployment) (*Plane, *monitor.System) {
	t.Helper()
	lms := sessionSystem(t)
	p, err := NewPlane(PlaneConfig{Transport: tr, Dispatch: fastDispatch()}, dep, lms)
	if err != nil {
		t.Fatal(err)
	}
	return p, lms
}

// reportAll sends every host's report for the minute, in cluster order.
func reportAll(t *testing.T, p *Plane, dep *service.Deployment, minute int) {
	t.Helper()
	for _, host := range dep.Cluster().Names() {
		if err := reportHost(context.Background(), p, dep, host, minute, 0.4); err != nil {
			t.Fatalf("minute %d: %s: %v", minute, host, err)
		}
	}
}

func latestMinute(t *testing.T, lms *monitor.System, key string) int {
	t.Helper()
	s, ok := lms.Archive().Latest(key)
	if !ok {
		return -1
	}
	return s.Minute
}

// TestSessionSteadyFramesAreIndexed: first contact is named, and from
// the next minute on every report goes out as numbers.
func TestSessionSteadyFramesAreIndexed(t *testing.T) {
	spy := newFrameSpy(t)
	dep := testDeployment(t)
	p, lms := sessionPlane(t, spy, dep)
	for minute := 0; minute < 3; minute++ {
		reportAll(t, p, dep, minute)
		if err := p.Coordinator().ObserveServices(minute); err != nil {
			t.Fatal(err)
		}
	}
	want := "h1@0:named h2@0:named h3@0:named h1@1:indexed h2@1:indexed h3@1:indexed h1@2:indexed h2@2:indexed h3@2:indexed"
	if got := forms(spy.take()); got != want {
		t.Fatalf("frames:\n got %s\nwant %s", got, want)
	}
	for _, inst := range dep.Instances() {
		if m := latestMinute(t, lms, archive.InstanceEntity(inst.ID)); m != 2 {
			t.Errorf("instance %s archived up to minute %d, want 2", inst.ID, m)
		}
	}
}

// TestSessionResyncOnRestart: a new coordinator under the same node
// name does not hold the reporter's session. The next Send sees one
// resync, re-sends the same minute named inside the same call, and the
// minute is merged once — nothing lost, nothing delayed, nothing parked.
func TestSessionResyncOnRestart(t *testing.T) {
	spy := newFrameSpy(t)
	dep := testDeployment(t)
	p, _ := sessionPlane(t, spy, dep)
	reportAll(t, p, dep, 0)
	reportAll(t, p, dep, 1)
	spy.take()

	if err := spy.Unlisten(CoordinatorNode); err != nil {
		t.Fatal(err)
	}
	lms := sessionSystem(t)
	next, err := NewCoordinator(CoordinatorNode, dep, lms, spy, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	next.Instrument(reg)
	if next.session == p.Coordinator().session {
		t.Fatal("two incarnations drew the same session")
	}

	rep, _ := p.Reporter("h1")
	if err := reportHost(context.Background(), p, dep, "h1", 2, 0.4); err != nil {
		t.Fatalf("send across the restart: %v", err)
	}
	if got, want := forms(spy.take()), "h1@2:resync h1@2:named"; got != want {
		t.Fatalf("frames: got %s, want %s", got, want)
	}
	if rep.Buffered() != 0 {
		t.Fatalf("reporter parked %d minutes", rep.Buffered())
	}
	if next.Heartbeats() != 1 {
		t.Fatalf("new incarnation ingested %d heartbeats, want 1", next.Heartbeats())
	}
	snap := reg.Snapshot()
	if snap[MetricHeartbeatResyncs] != 1 || snap[MetricHeartbeatNamedFrames] != 1 || snap[MetricHeartbeats] != 1 {
		t.Fatalf("resyncs %v, named %v, heartbeats %v; want 1, 1, 1",
			snap[MetricHeartbeatResyncs], snap[MetricHeartbeatNamedFrames], snap[MetricHeartbeats])
	}
	if err := next.ObserveServices(2); err != nil {
		t.Fatal(err)
	}
	if m := latestMinute(t, lms, archive.HostEntity("h1")); m != 2 {
		t.Fatalf("h1 archived up to minute %d, want 2", m)
	}
	// The minute after, the new session is in use.
	if err := reportHost(context.Background(), p, dep, "h1", 3, 0.4); err != nil {
		t.Fatal(err)
	}
	if got, want := forms(spy.take()), "h1@3:indexed"; got != want {
		t.Fatalf("frames: got %s, want %s", got, want)
	}
}

// reorderedDeployment is testDeployment with the hosts h2, h3, h1: a
// coordinator over it gives index 1 to h2, where one over testDeployment
// gives it to h1.
func reorderedDeployment(t *testing.T) *service.Deployment {
	t.Helper()
	src := testDeployment(t)
	var hosts []cluster.Host
	for _, name := range []string{"h2", "h3", "h1"} {
		h, _ := src.Cluster().Host(name)
		hosts = append(hosts, h)
	}
	dep := service.NewDeployment(cluster.MustNew(hosts...), src.Catalog())
	for _, h := range []string{"h2", "h1"} {
		if _, err := dep.Start("app", h); err != nil {
			t.Fatal(err)
		}
	}
	return dep
}

// TestSessionStaleIndexedFrameIsDroppedWhole: two incarnations whose
// dictionaries give index 1 to different hosts. An indexed frame made
// for the first and delivered to the second — held in the network
// across the restart, or duplicated — changes no archive series, no
// liveness state and no counter there: it is never attributed to the
// host that owns its numbers now.
func TestSessionStaleIndexedFrameIsDroppedWhole(t *testing.T) {
	spy := newFrameSpy(t)
	dep := testDeployment(t)
	p, _ := sessionPlane(t, spy, dep)
	if hs := p.Coordinator().slotFor("h1"); hs.index != 1 {
		t.Fatalf("first incarnation: h1 has index %d, want 1", hs.index)
	}
	reportAll(t, p, dep, 0)
	reportAll(t, p, dep, 1)
	if got, want := forms(spy.take()), "h1@0:named h2@0:named h3@0:named h1@1:indexed h2@1:indexed h3@1:indexed"; got != want {
		t.Fatalf("frames: got %s, want %s", got, want)
	}
	rep, _ := p.Reporter("h1")
	stale := wire.CloneEnvelope(&rep.env) // h1's indexed minute 1, as it went over the wire
	if !stale.Heartbeat.Indexed() || stale.Heartbeat.HostIndex != 1 {
		t.Fatalf("h1's last frame is not the indexed one: %+v", stale.Heartbeat)
	}

	// The second incarnation: same node name, index 1 is h2.
	if err := spy.Unlisten(CoordinatorNode); err != nil {
		t.Fatal(err)
	}
	lms := sessionSystem(t)
	next, err := NewCoordinator(CoordinatorNode, reorderedDeployment(t), lms, spy, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	next.Instrument(reg)
	if hs := next.slotFor("h2"); hs.index != 1 {
		t.Fatalf("second incarnation: h2 has index %d, want 1", hs.index)
	}

	untouched := func(when string) {
		t.Helper()
		if n := next.Heartbeats(); n != 0 {
			t.Fatalf("%s: %d heartbeats counted", when, n)
		}
		for _, h := range []string{"h1", "h2", "h3"} {
			if next.Liveness().Tracking(h) {
				t.Fatalf("%s: liveness tracks %s", when, h)
			}
		}
		if err := next.ObserveServices(1); err != nil {
			t.Fatal(err)
		}
		for _, e := range lms.Archive().Entities() {
			if lms.Archive().Len(e) != 0 {
				t.Fatalf("%s: archive series %s has samples", when, e)
			}
		}
		if snap := reg.Snapshot(); snap[MetricHeartbeats] != 0 || snap[MetricHeartbeatNamedFrames] != 0 {
			t.Fatalf("%s: heartbeats %v, named %v", when, snap[MetricHeartbeats], snap[MetricHeartbeatNamedFrames])
		}
	}

	// Delayed delivery: the frame sat in the network across the restart
	// and lands on the new incarnation.
	spy.HoldNext(CoordinatorNode, 1)
	if _, err := spy.Loopback.Call(context.Background(), CoordinatorNode, stale); err == nil {
		t.Fatal("held frame was delivered at once")
	}
	if n := spy.DeliverHeld(CoordinatorNode); n != 1 {
		t.Fatalf("delivered %d held frames, want 1", n)
	}
	untouched("held frame")
	if got := reg.Snapshot()[MetricHeartbeatResyncs]; got != 1 {
		t.Fatalf("resyncs = %v after the held frame, want 1", got)
	}

	// Duplicated delivery: both copies are refused.
	spy.DuplicateNext(CoordinatorNode, 1)
	reply, err := spy.Loopback.Call(context.Background(), CoordinatorNode, stale)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Ack == nil || reply.Ack.OK || !reply.Ack.Resync {
		t.Fatalf("stale frame answered %+v, want a resync", reply.Ack)
	}
	wire.ReleaseEnvelope(reply)
	untouched("duplicated frame")
	if got := reg.Snapshot()[MetricHeartbeatResyncs]; got != 3 {
		t.Fatalf("resyncs = %v after the duplicate, want 3", got)
	}

	// And the reporter itself recovers in one Send, under its own name.
	if err := reportHost(context.Background(), p, dep, "h1", 2, 0.4); err != nil {
		t.Fatal(err)
	}
	if got, want := forms(spy.take()), "h1@2:resync h1@2:named"; got != want {
		t.Fatalf("frames: got %s, want %s", got, want)
	}
	if err := next.ObserveServices(2); err != nil {
		t.Fatal(err)
	}
	if m := latestMinute(t, lms, archive.HostEntity("h1")); m != 2 {
		t.Fatalf("h1 archived up to minute %d, want 2", m)
	}
	if m := latestMinute(t, lms, archive.HostEntity("h2")); m != -1 {
		t.Fatalf("h2 has a sample at minute %d: h1's frame was attributed to it", m)
	}
}

// TestSessionInstanceListChange: a started, stopped or moved instance
// costs each affected host exactly one named frame; the minute after it
// is indexed again, and every instance's samples land under its own
// inst/ key throughout.
func TestSessionInstanceListChange(t *testing.T) {
	spy := newFrameSpy(t)
	dep := testDeployment(t)
	p, lms := sessionPlane(t, spy, dep)
	exec := p.Executor(controller.NewDeploymentExecutor(dep, controller.StickyUsers))
	minute := 0
	step := func(want string) {
		t.Helper()
		reportAll(t, p, dep, minute)
		if err := p.Coordinator().ObserveServices(minute); err != nil {
			t.Fatal(err)
		}
		if got := forms(spy.take()); got != fmt.Sprintf(want, minute, minute, minute) {
			t.Fatalf("minute %d frames: got %s, want %s", minute, got, fmt.Sprintf(want, minute, minute, minute))
		}
		for _, inst := range dep.Instances() {
			if m := latestMinute(t, lms, archive.InstanceEntity(inst.ID)); m != minute {
				t.Fatalf("minute %d: instance %s on %s archived up to minute %d", minute, inst.ID, inst.Host, m)
			}
		}
		minute++
	}
	const steady = "h1@%d:indexed h2@%d:indexed h3@%d:indexed"
	step("h1@%d:named h2@%d:named h3@%d:named")
	step(steady)

	// Start: h3 gains an instance.
	if err := exec.Execute(&controller.Decision{Action: service.ActionScaleOut, Service: "app", TargetHost: "h3"}); err != nil {
		t.Fatal(err)
	}
	started := dep.InstancesOn("h3")[0].ID
	step("h1@%d:indexed h2@%d:indexed h3@%d:named")
	step(steady)

	// Stop: it goes away again.
	if err := exec.Execute(&controller.Decision{Action: service.ActionScaleIn, Service: "app",
		InstanceID: started, SourceHost: "h3"}); err != nil {
		t.Fatal(err)
	}
	step("h1@%d:indexed h2@%d:indexed h3@%d:named")
	step(steady)
	if m := latestMinute(t, lms, archive.InstanceEntity(started)); m != minute-3 {
		t.Fatalf("stopped instance %s archived up to minute %d, want %d", started, m, minute-3)
	}

	// Move: h1's instance goes to h3 — both hosts' lists change.
	moved := dep.InstancesOn("h1")[0].ID
	if err := exec.Execute(&controller.Decision{Action: service.ActionMove, Service: "app",
		InstanceID: moved, SourceHost: "h1", TargetHost: "h3"}); err != nil {
		t.Fatal(err)
	}
	step("h1@%d:named h2@%d:indexed h3@%d:named")
	step(steady)
}

// TestSessionFollowsLeaseRedirect: a session belongs to the node that
// issued it. A takeover redirects the reporters to another node — one
// named frame each, then indexed — and a second takeover back to the
// restarted first leader costs one more, not a resync: the reporter
// never offers one node's numbers to another.
func TestSessionFollowsLeaseRedirect(t *testing.T) {
	spy := newFrameSpy(t)
	dep := testDeployment(t)
	p, _ := sessionPlane(t, spy, dep)
	reg := obs.NewRegistry()
	if _, _, err := p.AttachJournal(context.Background(), t.TempDir(), journal.Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	e, err := p.AttachStandbys(1, ElectionConfig{RestartAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.Instrument(reg)
	for _, m := range e.members {
		m.coord.Instrument(reg)
	}
	first := e.LeaderNode()
	minute := 0
	run := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			electionMinute(t, p, e, minute)
			minute++
		}
	}
	// h1 renders the delivered frames of host h1 as "node:form" words.
	h1 := func() string {
		var words []string
		for _, f := range spy.take() {
			if f.host != "h1" || f.err != nil {
				continue
			}
			form := "named"
			if f.indexed {
				form = "indexed"
			}
			if f.resync {
				form = "resync"
			}
			words = append(words, f.to+":"+form)
		}
		return strings.Join(words, " ")
	}
	run(3)
	if got, want := h1(), first+":named "+first+":indexed "+first+":indexed"; got != want {
		t.Fatalf("before the kill: got %s, want %s", got, want)
	}
	for kill := 0; kill < 2; kill++ {
		from := e.LeaderNode()
		if ok, err := e.KillLeader(minute); err != nil || !ok {
			t.Fatalf("kill %d: %v %v", kill, ok, err)
		}
		for e.LeaderNode() == from || !e.LeaderAlive() {
			run(1)
			if minute > 60 {
				t.Fatal("no takeover")
			}
		}
		run(4)
		// The parked backlog drains named, then numbers only.
		to := regexp.QuoteMeta(e.LeaderNode())
		if got := h1(); !regexp.MustCompile(`^(` + to + `:named )+(` + to + `:indexed ?){4,}$`).MatchString(got) {
			t.Fatalf("kill %d: frames after the redirect: %s", kill, got)
		}
	}
	if e.LeaderNode() != first {
		t.Fatalf("leadership is with %s, want it back with %s", e.LeaderNode(), first)
	}
	if got := reg.Snapshot()[MetricHeartbeatResyncs]; got != 0 {
		t.Fatalf("resyncs = %v, want 0", got)
	}
}

// TestSessionParkedMinutesDrainNamed: minutes parked while the host is
// cut off are delivered named, oldest first, before the open report —
// which still goes out indexed, the session having survived.
func TestSessionParkedMinutesDrainNamed(t *testing.T) {
	spy := newFrameSpy(t)
	dep := testDeployment(t)
	p, lms := sessionPlane(t, spy, dep)
	p.Coordinator().EnableHA() // keep every drained minute, not only the newest
	rep, _ := p.Reporter("h1")
	ctx := context.Background()
	for minute := 0; minute < 2; minute++ {
		if err := reportHost(ctx, p, dep, "h1", minute, 0.4); err != nil {
			t.Fatal(err)
		}
		if err := p.Coordinator().ObserveServices(minute); err != nil {
			t.Fatal(err)
		}
	}
	spy.Isolate("h1")
	for minute := 2; minute < 5; minute++ {
		if err := reportHost(ctx, p, dep, "h1", minute, 0.4); err == nil {
			t.Fatalf("minute %d delivered from an isolated host", minute)
		}
	}
	if rep.Buffered() != 3 {
		t.Fatalf("reporter holds %d minutes, want 3", rep.Buffered())
	}
	for _, hb := range rep.buffered {
		if hb.Session != 0 || hb.HostIndex != 0 || hb.Indexed() {
			t.Fatalf("parked minute %d kept its session: %+v", hb.Minute, hb)
		}
	}
	spy.Heal("h1")
	spy.take()
	if err := reportHost(ctx, p, dep, "h1", 5, 0.4); err != nil {
		t.Fatal(err)
	}
	if got, want := forms(spy.take()), "h1@2:named h1@3:named h1@4:named h1@5:indexed"; got != want {
		t.Fatalf("drain: got %s, want %s", got, want)
	}
	if rep.Buffered() != 0 {
		t.Fatalf("reporter still holds %d minutes", rep.Buffered())
	}
	if err := p.Coordinator().ObserveServices(5); err != nil {
		t.Fatal(err)
	}
	if n := lms.Archive().Len(archive.HostEntity("h1")); n != 6 {
		t.Fatalf("h1 has %d archived minutes, want 6 (none lost)", n)
	}
}

// TestSessionOverJSON drives the JSON codec end to end, over real HTTP:
// names and indices travel together, a steady frame is resolved by its
// indices, and a frame from a stale session that brings its names is
// ingested by name, not bounced.
func TestSessionOverJSON(t *testing.T) {
	tr := wire.NewHTTP() // Codec: JSON
	t.Cleanup(func() { tr.Close() })
	dep := testDeployment(t)
	p, lms := sessionPlane(t, tr, dep)
	reg := obs.NewRegistry()
	p.Instrument(reg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for minute := 0; minute < 3; minute++ {
		if err := reportHost(ctx, p, dep, "h1", minute, 0.4); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if snap[MetricHeartbeats] != 3 || snap[MetricHeartbeatNamedFrames] != 1 || snap[MetricHeartbeatResyncs] != 0 {
		t.Fatalf("heartbeats %v, named %v, resyncs %v; want 3, 1, 0",
			snap[MetricHeartbeats], snap[MetricHeartbeatNamedFrames], snap[MetricHeartbeatResyncs])
	}
	rep, _ := p.Reporter("h1")
	doc, err := json.Marshal(&rep.env)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"host":"h1"`, `"hostIndex":`, `"session":`, `"index":`, `"service":"app"`} {
		if !strings.Contains(string(doc), field) {
			t.Fatalf("JSON heartbeat lacks %s: %s", field, doc)
		}
	}

	// A stale session, names present.
	stale := wire.CloneEnvelope(&rep.env)
	stale.Heartbeat.Session ^= 0x5a5a
	stale.Heartbeat.Minute = 3
	reply, err := tr.Call(ctx, CoordinatorNode, stale)
	if err != nil {
		t.Fatal(err)
	}
	coord := p.Coordinator()
	if a := reply.Ack; a == nil || !a.OK || a.Resync || a.Session != coord.session ||
		a.HostIndex != coord.slotFor("h1").index || len(a.Indices) != len(stale.Heartbeat.Instances) {
		t.Fatalf("stale-session JSON frame answered %+v, want an index ack of session %x", reply.Ack, coord.session)
	}
	snap = reg.Snapshot()
	if snap[MetricHeartbeats] != 4 || snap[MetricHeartbeatNamedFrames] != 2 || snap[MetricHeartbeatResyncs] != 0 {
		t.Fatalf("after the stale frame: heartbeats %v, named %v, resyncs %v; want 4, 2, 0",
			snap[MetricHeartbeats], snap[MetricHeartbeatNamedFrames], snap[MetricHeartbeatResyncs])
	}
	if err := coord.ObserveServices(3); err != nil {
		t.Fatal(err)
	}
	if m := latestMinute(t, lms, archive.HostEntity("h1")); m != 3 {
		t.Fatalf("h1 archived up to minute %d, want 3", m)
	}
}

// TestSessionDictionaryIsBounded: the wire is unauthenticated, so what a
// peer can make the coordinator remember is capped. A stream of unique
// host and instance names stops growing the tables at the cap; indices
// already issued keep resolving; the heartbeats are still merged.
func TestSessionDictionaryIsBounded(t *testing.T) {
	spy := newFrameSpy(t)
	dep := testDeployment(t)
	p, lms := sessionPlane(t, spy, dep)
	coord := p.Coordinator()
	reg := obs.NewRegistry()
	coord.Instrument(reg)
	const limit = 64
	coord.dictCap = limit
	reportAll(t, p, dep, 0) // the landscape's own names: 3 hosts, 2 instances
	ctx := context.Background()
	flood := func(i int) *wire.Envelope {
		host := fmt.Sprintf("intruder-%03d", i)
		return wire.HeartbeatEnvelope(host, CoordinatorNode, wire.Heartbeat{Host: host, Minute: 1, CPU: 0.5,
			Instances: []wire.InstanceSample{{ID: host + "-i", Service: "app", Load: 0.5}}})
	}
	indexed, bare := 0, 0
	for i := 0; i < 200; i++ {
		reply, err := spy.Loopback.Call(ctx, CoordinatorNode, flood(i))
		if err != nil {
			t.Fatal(err)
		}
		switch a := reply.Ack; {
		case a == nil || !a.OK || a.Resync:
			t.Fatalf("flood %d answered %+v", i, reply.Ack)
		case a.Session != 0 && a.HostIndex != 0 && len(a.Indices) == 1:
			indexed++
		case a.Session == 0 && a.HostIndex == 0 && len(a.Indices) == 0:
			bare++
		default:
			t.Fatalf("flood %d answered half an index ack: %+v", i, a)
		}
		wire.ReleaseEnvelope(reply)
	}
	if n := len(coord.hostTab) + len(coord.instTab); n != limit {
		t.Fatalf("dictionary holds %d names, want the cap %d", n, limit)
	}
	if len(coord.instIdx) != len(coord.instTab) {
		t.Fatalf("instance index has %d entries for a table of %d", len(coord.instIdx), len(coord.instTab))
	}
	if indexed == 0 || bare == 0 || indexed+bare != 200 {
		t.Fatalf("%d index acks and %d bare ones of 200", indexed, bare)
	}
	// Issued indices keep resolving: the landscape reports as numbers.
	spy.take()
	reportAll(t, p, dep, 1)
	if got, want := forms(spy.take()), "h1@1:indexed h2@1:indexed h3@1:indexed"; got != want {
		t.Fatalf("frames: got %s, want %s", got, want)
	}
	// And everyone was merged, indexed or not.
	if err := coord.ObserveServices(1); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot()[MetricHeartbeatSessionNames+`{node="`+CoordinatorNode+`"}`]; got != limit {
		t.Fatalf("%s = %v, want %d", MetricHeartbeatSessionNames, got, limit)
	}
	for _, host := range []string{"h1", "intruder-000", "intruder-199"} {
		if m := latestMinute(t, lms, archive.HostEntity(host)); m != 1 {
			t.Fatalf("%s archived up to minute %d, want 1", host, m)
		}
	}
	if m := latestMinute(t, lms, archive.InstanceEntity("intruder-199-i")); m != 1 {
		t.Fatalf("a past-the-cap host's instance archived up to minute %d, want 1", m)
	}
}

// TestSessionConcurrentReporters hammers the dictionary and the slots
// from 32 reporters at once — indexed frames, and a named one whenever a
// host's instance list changes, each minting a name — while the control
// loop closes minutes, reshards and forgets a host. Under -race this
// covers resolve/mint/ingest against collect/Reshard/Forget; every beat
// must be counted and none refused.
func TestSessionConcurrentReporters(t *testing.T) {
	const (
		workers = 32
		beats   = 300
	)
	lb := wire.NewLoopback()
	lb.SetCodec(wire.CodecBinary)
	t.Cleanup(func() { lb.Close() })
	coord, err := NewCoordinator(CoordinatorNode, testDeployment(t), sessionSystem(t), lb, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord.Instrument(reg)

	var producers, loop sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		host := fmt.Sprintf("w%02d", w)
		a, err := NewAgent(host, CoordinatorNode, lb)
		if err != nil {
			t.Fatal(err)
		}
		producers.Add(1)
		go func(rep *HeartbeatReporter) {
			defer producers.Done()
			for m := 0; m < beats; m++ {
				rep.Begin(m, 0.4, 0.3)
				rep.Sample(fmt.Sprintf("%s-i%d", host, m/50), "app", 0.4) // a new instance every 50 minutes
				if err := rep.Send(context.Background()); err != nil {
					t.Errorf("%s minute %d: %v", host, m, err)
					return
				}
			}
		}(a.Reporter())
	}
	loop.Add(1)
	go func() {
		defer loop.Done()
		for minute := 0; ; minute++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := coord.ObserveServices(minute); err != nil {
				t.Errorf("observe minute %d: %v", minute, err)
				return
			}
			coord.TakeTriggers()
			if minute%7 == 0 {
				coord.Reshard(1 + minute%5)
			}
			if minute%11 == 0 {
				coord.Forget("w00")
			}
		}
	}()
	producers.Wait()
	close(stop)
	loop.Wait()

	if got, want := coord.Heartbeats(), workers*beats; got != want {
		t.Fatalf("ingested %d heartbeats, want %d", got, want)
	}
	snap := reg.Snapshot()
	if got, want := snap[MetricHeartbeatNamedFrames], float64(workers*beats/50); got != want {
		t.Fatalf("%v named frames, want %v (one per instance-list change)", got, want)
	}
	if got := snap[MetricHeartbeatResyncs]; got != 0 {
		t.Fatalf("%v resyncs", got)
	}
}

// fleetBed is a manager over the tiled 1,007-host fleet on a binary
// loopback: the fleet-steady benchmark's shape.
func fleetBed(tb testing.TB, reg *obs.Registry) (*Manager, *service.Deployment) {
	tb.Helper()
	dep := tiledDeployment(tb, 53)
	lb := wire.NewLoopback()
	lb.SetCodec(wire.CodecBinary)
	m, err := NewLocalManager(Assembly{
		Plane:      PlaneConfig{Transport: lb},
		Monitor:    monitor.PaperParams(),
		Mobility:   service.FullMobility,
		JournalDir: tb.TempDir(),
		Journal:    journal.Options{NoSync: true},
		Obs:        reg,
	}, dep)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { m.Close(); lb.Close() })
	return m, dep
}

// fleetReport is a steady report stage: a load between the idle and the
// overload threshold from every host, so nothing triggers.
func fleetReport(m *Manager, dep *service.Deployment) func(context.Context, int) error {
	hosts := dep.Cluster().Names()
	reps := make([]*HeartbeatReporter, len(hosts))
	insts := make([][]*service.Instance, len(hosts))
	for i, h := range hosts {
		reps[i], _ = m.Plane.Reporter(h)
		insts[i] = dep.InstancesOn(h)
	}
	return func(ctx context.Context, minute int) error {
		for i, rep := range reps {
			rep.Begin(minute, 0.4, 0.3)
			for _, inst := range insts[i] {
				rep.Sample(inst.ID, inst.Service, 0.4)
			}
			if err := rep.Send(ctx); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestFleetNamedFramesOnlyOnFirstContact: on the 1,007-host fleet every
// host is named exactly once — minute 0 — and thirty quiet minutes add
// no named frame and no resync: the steady minute carries numbers only.
func TestFleetNamedFramesOnlyOnFirstContact(t *testing.T) {
	reg := obs.NewRegistry()
	m, dep := fleetBed(t, reg)
	report := fleetReport(m, dep)
	hosts := float64(dep.Cluster().Len())
	for minute := 0; minute <= 30; minute++ {
		if _, err := m.Minute(context.Background(), minute, report); err != nil {
			t.Fatalf("minute %d: %v", minute, err)
		}
		snap := reg.Snapshot()
		if got := snap[MetricHeartbeatNamedFrames]; got != hosts {
			t.Fatalf("minute %d: %v named frames, want %v (one per host, ever)", minute, got, hosts)
		}
		if got := snap[MetricHeartbeats]; got != hosts*float64(minute+1) {
			t.Fatalf("minute %d: %v heartbeats, want %v", minute, got, hosts*float64(minute+1))
		}
	}
	snap := reg.Snapshot()
	if got := snap[MetricHeartbeatResyncs]; got != 0 {
		t.Fatalf("%v resyncs on a quiet fleet", got)
	}
	names := float64(dep.Cluster().Len() + len(dep.Instances()))
	if got := snap[MetricHeartbeatSessionNames+`{node="`+CoordinatorNode+`"}`]; got != names {
		t.Fatalf("session dictionary holds %v names, want %v (hosts + instances)", got, names)
	}
}

// BenchmarkReportStage1k is the report stage of one fleet-steady minute:
// 1,007 reporters, one Send each, over the binary loopback into one
// coordinator (the pending beats overwrite each other; the close is
// BenchmarkMinuteClose's business).
func BenchmarkReportStage1k(b *testing.B) {
	m, dep := fleetBed(b, nil)
	report := fleetReport(m, dep)
	ctx := context.Background()
	for minute := 0; minute < 3; minute++ {
		if err := report(ctx, minute); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := report(ctx, 3+i); err != nil {
			b.Fatal(err)
		}
	}
}
