package agent

import (
	"context"
	"testing"
	"time"

	"autoglobe/internal/cluster"
	"autoglobe/internal/service"
	"autoglobe/internal/wire"
)

// testDeployment builds a three-host landscape with one scalable
// service "app" (two instances on h1, h2) for the dispatch tests.
func testDeployment(t *testing.T) *service.Deployment {
	t.Helper()
	mk := func(name string) cluster.Host {
		return cluster.Host{Name: name, Category: "blade", PerformanceIndex: 1,
			CPUs: 1, ClockMHz: 2400, CacheKB: 512, MemoryMB: 4096,
			SwapMB: 2048, TempMB: 51200}
	}
	cl := cluster.MustNew(mk("h1"), mk("h2"), mk("h3"))
	cat, err := service.NewCatalog(&service.Service{
		Name: "app", Type: service.TypeInteractive, Subsystem: "ERP",
		MinInstances: 1, UsersPerUnit: 150, RequestWeight: 1,
		MemoryMBPerInstance: 256,
		Allowed: map[service.Action]bool{
			service.ActionStart: true, service.ActionStop: true,
			service.ActionScaleIn: true, service.ActionScaleOut: true,
			service.ActionMove: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dep := service.NewDeployment(cl, cat)
	for _, h := range []string{"h1", "h2"} {
		if _, err := dep.Start("app", h); err != nil {
			t.Fatal(err)
		}
	}
	return dep
}

// fastDispatch is a dispatcher configuration with a no-op sleep so
// retry tests run instantly; backoff delays are still computed and can
// be captured by replacing Sleep.
func fastDispatch() DispatchConfig {
	return DispatchConfig{
		Timeout:     50 * time.Millisecond,
		MaxAttempts: 3,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  40 * time.Millisecond,
		Sleep:       func(time.Duration) {},
	}
}

func TestAgentAppliesAndAcks(t *testing.T) {
	tr := wire.NewLoopback()
	a, err := NewAgent("h1", CoordinatorNode, tr)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(fastDispatch(), tr)
	ack, err := d.Do(context.Background(), wire.ActionRequest{
		Op: wire.OpStart, Host: "h1", Service: "app", InstanceID: "app-9"})
	if err != nil {
		t.Fatal(err)
	}
	if !ack.OK || ack.Duplicate {
		t.Fatalf("ack = %+v, want fresh OK", ack)
	}
	if !running(a, "app-9") {
		t.Fatal("instance not in the process table after start")
	}
}

func TestAgentIdempotentRedelivery(t *testing.T) {
	tr := wire.NewLoopback()
	a, err := NewAgent("h1", CoordinatorNode, tr)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(fastDispatch(), tr)

	// The agent applies the start but its ack vanishes; the dispatcher
	// must retry with the same key and the agent must answer from its
	// idempotency cache instead of double-applying.
	tr.DropReplyNext("h1", 1)
	ack, err := d.Do(context.Background(), wire.ActionRequest{
		Op: wire.OpStart, Host: "h1", Service: "app", InstanceID: "app-1"})
	if err != nil {
		t.Fatalf("dispatch failed despite retry budget: %v", err)
	}
	if !ack.OK || !ack.Duplicate {
		t.Fatalf("ack = %+v, want duplicate OK (served from cache)", ack)
	}
	if got := len(a.Log()); got != 1 {
		t.Fatalf("operation applied %d times, want exactly once; log %v", got, a.Log())
	}
	st := d.Stats()
	if st.Retries != 1 || st.Duplicates != 1 {
		t.Fatalf("stats = %+v, want 1 retry and 1 duplicate", st)
	}
}

func TestDispatcherRetriesWithBackoff(t *testing.T) {
	tr := wire.NewLoopback()
	if _, err := NewAgent("h1", CoordinatorNode, tr); err != nil {
		t.Fatal(err)
	}
	var delays []time.Duration
	cfg := DispatchConfig{
		Timeout:     50 * time.Millisecond,
		MaxAttempts: 4,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  25 * time.Millisecond,
		Sleep:       func(d time.Duration) { delays = append(delays, d) },
	}
	d := NewDispatcher(cfg, tr)

	tr.DropNext("h1", 2) // two lost requests, third attempt lands
	req := wire.ActionRequest{Op: wire.OpStart, Host: "h1", Service: "app", InstanceID: "app-1"}
	ack, err := d.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(delays) != 2 {
		t.Fatalf("slept %d times, want 2; delays %v", len(delays), delays)
	}
	// Jitter keeps each delay in [nominal/2, nominal]; nominal doubles
	// from BaseBackoff and is capped at MaxBackoff.
	bounds := []struct{ lo, hi time.Duration }{
		{5 * time.Millisecond, 10 * time.Millisecond},
		{10 * time.Millisecond, 20 * time.Millisecond},
	}
	for i, got := range delays {
		if got < bounds[i].lo || got > bounds[i].hi {
			t.Errorf("backoff %d = %v outside [%v, %v]", i+1, got, bounds[i].lo, bounds[i].hi)
		}
	}

	// Jitter is a function of the key and the attempt: re-issuing the
	// key after other retries to the same host sleeps the same pauses.
	first := delays
	delays = nil
	tr.DropNext("h1", 1)
	if _, err := d.Do(context.Background(), wire.ActionRequest{
		Op: wire.OpStart, Host: "h1", Service: "app", InstanceID: "app-2"}); err != nil {
		t.Fatal(err)
	}
	delays = nil
	tr.DropNext("h1", 2)
	req.Key = ack.Key
	if again, err := d.Do(context.Background(), req); err != nil || !again.Duplicate {
		t.Fatalf("re-issue = (%+v, %v), want a duplicate ack", again, err)
	}
	if len(delays) != len(first) || delays[0] != first[0] || delays[1] != first[1] {
		t.Fatalf("re-issued key slept %v, want %v", delays, first)
	}

	// Exhausting the budget surfaces the transport error.
	tr.DropNext("h1", 4)
	if _, err := d.Do(context.Background(), wire.ActionRequest{
		Op: wire.OpStop, Host: "h1", InstanceID: "app-1"}); err == nil {
		t.Fatal("dispatch succeeded with every request dropped")
	}
	if st := d.Stats(); st.Expired != 1 {
		t.Fatalf("stats = %+v, want 1 expired action", st)
	}
}

func TestAgentRejectsExpiredDeadline(t *testing.T) {
	tr := wire.NewLoopback()
	a, err := NewAgent("h1", CoordinatorNode, tr)
	if err != nil {
		t.Fatal(err)
	}
	// The agent's clock is one hour ahead of the action's deadline —
	// the coordinator that sent it has long given up.
	a.Now = func() time.Time { return time.Now().Add(time.Hour) }
	d := NewDispatcher(fastDispatch(), tr)
	_, err = d.Do(context.Background(), wire.ActionRequest{
		Op: wire.OpStart, Host: "h1", Service: "app", InstanceID: "app-1",
		DeadlineUnixMS: time.Now().UnixMilli()})
	if _, ok := err.(*NackError); !ok {
		t.Fatalf("err = %v, want NackError for expired deadline", err)
	}
	if running(a, "app-1") {
		t.Fatal("expired action was applied anyway")
	}
}

func TestAgentNackIsPermanent(t *testing.T) {
	tr := wire.NewLoopback()
	a, err := NewAgent("h1", CoordinatorNode, tr)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(fastDispatch(), tr)
	// Stopping an unknown instance is rejected, once, without retries.
	_, err = d.Do(context.Background(), wire.ActionRequest{
		Op: wire.OpStop, Host: "h1", InstanceID: "ghost-1"})
	if _, ok := err.(*NackError); !ok {
		t.Fatalf("err = %v, want NackError", err)
	}
	if st := d.Stats(); st.Retries != 0 || st.Nacks != 1 {
		t.Fatalf("stats = %+v, want no retries and 1 nack", st)
	}
	_ = a
}

func TestAgentAnswersProbes(t *testing.T) {
	tr := wire.NewLoopback()
	if _, err := NewAgent("h1", CoordinatorNode, tr); err != nil {
		t.Fatal(err)
	}
	reply, err := tr.Call(context.Background(), "h1",
		wire.ProbeEnvelope(CoordinatorNode, "h1", wire.Probe{Host: "h1", Minute: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.TypeProbeAck || reply.Probe.Host != "h1" {
		t.Fatalf("probe reply = %+v, want probeAck from h1", reply)
	}
}

// running reports whether the instance is in a's process table.
func running(a *Agent, instanceID string) bool {
	_, ok := a.Instances()[instanceID]
	return ok
}
