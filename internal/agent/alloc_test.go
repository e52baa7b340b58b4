package agent

import (
	"context"
	"testing"
	"time"

	"autoglobe/internal/monitor"
	"autoglobe/internal/wire"
)

// TestHeartbeatPathZeroAlloc is the perf gate of the ingest plane: one
// steady-state heartbeat — reporter batching, binary frame encode, the
// loopback's socket-equivalent decode, buffering in the host's slot
// under the ingest lock and the pooled ack coming back — must allocate
// nothing. The pools
// (frames, envelope carriers, interned identifiers, recycled pending
// beats) exist precisely for this property; if a change re-introduces
// an allocation, this test names the regression long before a 1,000-
// host landscape feels it as GC pressure.
func TestHeartbeatPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by race instrumentation")
	}
	dep := testDeployment(t)
	lms, err := monitor.NewSystem(monitor.PaperParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := wire.NewLoopback()
	p, err := NewPlane(PlaneConfig{Transport: tr}, dep, lms)
	if err != nil {
		t.Fatal(err)
	}
	host := dep.Cluster().Names()[0]
	insts := dep.InstancesOn(host)
	rep, ok := p.Reporter(host)
	if !ok {
		t.Fatal("no reporter")
	}
	ctx := context.Background()
	minute := 0
	send := func() {
		rep.Begin(minute, 0.42, 0.3)
		for _, inst := range insts {
			rep.Sample(inst.ID, inst.Service, 0.42)
		}
		if err := rep.Send(ctx); err != nil {
			t.Fatal(err)
		}
		minute++
	}
	// Warm-up: populate the pools, the interner and the slot's pending
	// beat; the first beats legitimately allocate.
	for i := 0; i < 64; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
		t.Fatalf("steady-state heartbeat path allocates %.1f times per beat, want 0", allocs)
	}
	// The minute boundary (merge + service close) may allocate a little
	// as watch windows move, but the per-beat path must stay clean even
	// interleaved with merges.
	if err := p.Coordinator().ObserveServices(minute); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
		t.Fatalf("post-merge heartbeat path allocates %.1f times per beat, want 0", allocs)
	}
}

// TestDispatchPathZeroAlloc is the perf gate of the dispatch plane, the
// mirror of the heartbeat gate above: one steady-state healthy dispatch
// — minted idempotency key, pooled action envelope, the attempt's
// timeout context, the agent's bounded ack cache and audit ring, the
// pooled ack coming back — allocates exactly dispatchAllocs times. The
// warm-up is deliberately long: the agent's ack cache (ackCacheCap) and
// audit ring (agentLogCap) must both reach capacity before the steady
// state exists.
func TestDispatchPathZeroAlloc(t *testing.T) {
	// The nine allocations: the idempotency key decoded from the request
	// frame and the one decoded from the ack frame (a key is unique per
	// action, so it is copied out of the frame, not interned — the
	// interner holds the bounded vocabulary of host, service, instance
	// and node names, and keys would only churn it); three for the
	// minted key (its two boxed fmt arguments and the string); and four
	// for the attempt's context.WithTimeout (the context, its timer, the
	// timer's callback and the cancel func).
	const dispatchAllocs = 9
	if raceEnabled {
		t.Skip("allocation counts are distorted by race instrumentation")
	}
	tr := wire.NewLoopback()
	defer tr.Close()
	if _, err := NewAgent("h1", CoordinatorNode, tr); err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(DispatchConfig{Timeout: 2 * time.Second}, tr)
	ctx := context.Background()
	i := 0
	send := func() {
		op, id := wire.OpStart, "app-steady"
		if i%2 == 1 {
			op = wire.OpStop
		}
		ack, err := d.Do(ctx, wire.ActionRequest{Op: op, Host: "h1", Service: "app", InstanceID: id})
		if err != nil {
			t.Fatal(err)
		}
		if !ack.OK || ack.Duplicate {
			t.Fatalf("dispatch %d: ack = %+v, want clean OK", i, ack)
		}
		i++
	}
	// Warm-up: fill the agent's ack cache and audit ring to capacity.
	for n := 0; n < ackCacheCap+agentLogCap+512; n++ {
		send()
	}
	if allocs := testing.AllocsPerRun(1000, send); allocs != dispatchAllocs {
		t.Fatalf("steady-state dispatch path allocates %.1f times per action, want %d", allocs, dispatchAllocs)
	}
}
