package agent

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"autoglobe/internal/journal"
	"autoglobe/internal/monitor"
	"autoglobe/internal/wire"
)

// startAgents starts n agents h000..h(n-1) on the transport.
func startAgents(t *testing.T, tr wire.Transport, n int) []*Agent {
	t.Helper()
	agents := make([]*Agent, n)
	for i := range agents {
		a, err := NewAgent(fmt.Sprintf("h%03d", i), CoordinatorNode, tr)
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
	}
	return agents
}

// TestDispatchConcurrentCallersStress hammers the journaled dispatcher
// under -race: one Do caller per (caller, host) pair, all at once, over
// many hosts with injected drops, lost acks and duplicated deliveries.
// Per-caller ordering, exactly-once application and journal
// bookkeeping must all survive.
func TestDispatchConcurrentCallersStress(t *testing.T) {
	tr := wire.NewLoopback()
	defer tr.Close()
	const hosts = 24
	agents := startAgents(t, tr, hosts)
	cj, err := OpenCoordinatorJournal(t.TempDir(), journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cj.Close()
	cfg := fastDispatch()
	cfg.MaxAttempts = 6
	d := NewDispatcher(cfg, tr)
	d.AttachJournal(cj)

	// Faults: every third host loses a request, every fourth loses an
	// ack (forcing a retry into a duplicate answer), every fifth gets a
	// duplicated delivery.
	for i, a := range agents {
		switch {
		case i%3 == 0:
			tr.DropNext(a.Host(), 1)
		case i%4 == 0:
			tr.DropReplyNext(a.Host(), 1)
		case i%5 == 0:
			tr.DuplicateNext(a.Host(), 1)
		}
	}

	const callers = 4
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, callers*rounds*hosts)
	for c := 0; c < callers; c++ {
		for _, a := range agents {
			wg.Add(1)
			go func(c int, host string) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if _, err := d.Do(context.Background(), wire.ActionRequest{
						Op: wire.OpStart, Host: host, Service: "app",
						InstanceID: fmt.Sprintf("i-%s-c%d-r%d", host, c, r),
					}); err != nil {
						errs <- err
					}
				}
			}(c, a.Host())
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("dispatch failed under stress: %v", err)
	}

	// Exactly-once: every instance applied exactly one start, whatever
	// the drops and duplicate deliveries did to the message flow.
	for _, a := range agents {
		log := a.Log()
		if len(log) != callers*rounds {
			t.Fatalf("host %s applied %d ops, want %d", a.Host(), len(log), callers*rounds)
		}
		seen := make(map[string]bool, len(log))
		for _, entry := range log {
			if seen[entry] {
				t.Fatalf("host %s applied %q twice", a.Host(), entry)
			}
			seen[entry] = true
		}
		// Per-caller ordering: each caller's rounds must appear in order.
		for c := 0; c < callers; c++ {
			last := -1
			for _, entry := range log {
				var gotC, gotR int
				if _, err := fmt.Sscanf(entry, "start i-"+a.Host()+"-c%d-r%d", &gotC, &gotR); err != nil {
					t.Fatalf("host %s: unparseable log entry %q", a.Host(), entry)
				}
				if gotC != c {
					continue
				}
				if gotR <= last {
					t.Fatalf("host %s: caller %d round %d applied after round %d", a.Host(), c, gotR, last)
				}
				last = gotR
			}
		}
	}
	// Every action reached a journaled terminal fate.
	if p := cj.Pending(); len(p) != 0 {
		t.Fatalf("%d actions still pending after all acks", len(p))
	}
	st := d.Stats()
	if st.Actions != callers*rounds*hosts {
		t.Fatalf("stats.Actions = %d, want %d", st.Actions, callers*rounds*hosts)
	}
	if st.Retries == 0 || st.Duplicates == 0 {
		t.Fatalf("faults did not bite: stats = %+v, want retries and duplicates", st)
	}
}

// TestDispatchKeysAreNeverReused: every action gets a key of its own.
// More dispatches than the agent's idempotency cache holds go to one
// host, one of them retried after a lost ack, then more under a journal
// epoch; no key repeats, and only the retry is answered from the cache.
func TestDispatchKeysAreNeverReused(t *testing.T) {
	tr := wire.NewLoopback()
	defer tr.Close()
	if _, err := NewAgent("h1", CoordinatorNode, tr); err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(fastDispatch(), tr)
	ctx := context.Background()

	seen := make(map[string]bool)
	send := func(i int) wire.ActionAck {
		op := wire.OpStart
		if i%2 == 1 {
			op = wire.OpStop
		}
		ack, err := d.Do(ctx, wire.ActionRequest{Op: op, Host: "h1", Service: "app", InstanceID: "app-1"})
		if err != nil {
			t.Fatal(err)
		}
		if seen[ack.Key] {
			t.Fatalf("dispatch %d: key %s minted twice", i, ack.Key)
		}
		seen[ack.Key] = true
		return ack
	}
	const retried = 100
	n := 0
	for ; n < ackCacheCap+64; n++ {
		if n == retried {
			tr.DropReplyNext("h1", 1)
		}
		if ack := send(n); ack.Duplicate != (n == retried) {
			t.Fatalf("dispatch %d: duplicate = %v, want %v", n, ack.Duplicate, n == retried)
		}
	}

	cj, err := OpenCoordinatorJournal(t.TempDir(), journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cj.Close()
	d.AttachJournal(cj)
	scope := fmt.Sprintf("%s-e%d-", CoordinatorNode, cj.Epoch())
	for end := n + 64; n < end; n++ {
		ack := send(n)
		if ack.Duplicate {
			t.Fatalf("dispatch %d under epoch %d answered from cache", n, cj.Epoch())
		}
		if !strings.HasPrefix(ack.Key, scope) {
			t.Fatalf("dispatch %d: key %s, want prefix %s", n, ack.Key, scope)
		}
	}
	if st := d.Stats(); st.Actions != n || st.Retries != 1 || st.Duplicates != 1 {
		t.Fatalf("stats = %+v, want %d actions, 1 retry, 1 duplicate", st, n)
	}
}

// TestDispatchKeyRecycling: keys are not recycled. Past the point where
// the agent's idempotency cache has evicted the first keys (ackCacheCap
// fresh answers from one host), a dispatch still gets a key never used
// before, so no fresh action is answered from the cache.
func TestDispatchKeyRecycling(t *testing.T) {
	tr := wire.NewLoopback()
	defer tr.Close()
	if _, err := NewAgent("h1", CoordinatorNode, tr); err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(fastDispatch(), tr)
	ctx := context.Background()

	seen := make(map[string]int)
	for i := 0; i < 2*ackCacheCap; i++ {
		op, id := wire.OpStart, fmt.Sprintf("i%d", i)
		if i%2 == 1 {
			op, id = wire.OpStop, fmt.Sprintf("i%d", i-1)
		}
		ack, err := d.Do(ctx, wire.ActionRequest{Op: op, Host: "h1", Service: "app", InstanceID: id})
		if err != nil {
			t.Fatal(err)
		}
		if ack.Duplicate {
			t.Fatalf("dispatch %d: key %s answered from cache (stale!)", i, ack.Key)
		}
		if j, ok := seen[ack.Key]; ok {
			t.Fatalf("dispatch %d: key %s already used by dispatch %d", i, ack.Key, j)
		}
		seen[ack.Key] = i
	}
}

// TestDispatchKeyRecyclingSkipsRetried: a key whose dispatch needed a
// retry (a stray copy may survive in the network) never comes back,
// however many fresh answers pass through the host afterwards.
func TestDispatchKeyRecyclingSkipsRetried(t *testing.T) {
	tr := wire.NewLoopback()
	defer tr.Close()
	if _, err := NewAgent("h1", CoordinatorNode, tr); err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(fastDispatch(), tr)
	ctx := context.Background()

	tr.DropReplyNext("h1", 1)
	ack, err := d.Do(ctx, wire.ActionRequest{Op: wire.OpStart, Host: "h1", Service: "app", InstanceID: "i0"})
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Duplicate {
		t.Fatalf("ack = %+v, want duplicate (retry answered from cache)", ack)
	}
	retried := ack.Key
	// Push more fresh answers through the host than the agent's cache
	// holds, then verify the retried key never comes back.
	for i := 1; i <= 2*ackCacheCap; i++ {
		op, id := wire.OpStart, fmt.Sprintf("i%d", i)
		if i%2 == 0 {
			op, id = wire.OpStop, fmt.Sprintf("i%d", i-1)
		}
		got, err := d.Do(ctx, wire.ActionRequest{Op: op, Host: "h1", Service: "app", InstanceID: id})
		if err != nil {
			t.Fatal(err)
		}
		if got.Key == retried {
			t.Fatalf("retried key %s was used again", retried)
		}
	}
}

// TestTriggerQueueRecycling: the coordinator's per-minute trigger
// drain must reuse the recycled backing array instead of allocating a
// fresh queue every minute.
func TestTriggerQueueRecycling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by race instrumentation")
	}
	var c Coordinator
	spare := make([]*monitor.Trigger, 0, 8)
	c.RecycleTriggers(spare[:4])
	trig := monitor.Trigger{Kind: monitor.ServerOverloaded}
	cycle := func() {
		c.mu.Lock()
		c.triggers = append(c.triggers, trig, trig)
		c.mu.Unlock()
		out := c.TakeTriggers()
		if len(out) != 2 {
			t.Fatalf("took %d triggers, want 2", len(out))
		}
		c.RecycleTriggers(out)
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state trigger drain allocates %.1f times per minute, want 0", allocs)
	}
}

// TestTakeTriggersViewsStayValid: a view TakeTriggers lent points into
// a queue no later drain reuses until the view comes back, whatever the
// order views are taken and returned in.
func TestTakeTriggersViewsStayValid(t *testing.T) {
	var c Coordinator
	queue := func(entities ...string) {
		c.mu.Lock()
		for _, e := range entities {
			c.triggers = append(c.triggers, monitor.Trigger{Kind: monitor.ServerOverloaded, Entity: e})
		}
		c.mu.Unlock()
	}
	check := func(view []*monitor.Trigger, entities ...string) {
		t.Helper()
		if len(view) != len(entities) {
			t.Fatalf("view holds %d triggers, want %d", len(view), len(entities))
		}
		for i, tr := range view {
			if tr.Entity != entities[i] {
				t.Fatalf("view[%d] = %q, want %q", i, tr.Entity, entities[i])
			}
		}
	}
	for round := 0; round < 4; round++ {
		queue("a1", "a2")
		a := c.TakeTriggers()
		empty := c.TakeTriggers()
		queue("b1")
		b := c.TakeTriggers()
		c.RecycleTriggers(empty)
		queue("c1", "c2", "c3")
		check(a, "a1", "a2")
		check(b, "b1")
		c.RecycleTriggers(a) // lent before b: left to the collector
		cv := c.TakeTriggers()
		check(b, "b1")
		check(cv, "c1", "c2", "c3")
		c.RecycleTriggers(b)
		c.RecycleTriggers(cv)
	}
}

// TestConcurrentJournaledDispatch: sixteen concurrent Do callers over a
// journal with real fsync. Every record is its own append under the
// journal's lock; the storm must finish (no wedge) and leave nothing
// pending.
func TestConcurrentJournaledDispatch(t *testing.T) {
	tr := wire.NewLoopback()
	defer tr.Close()
	const hosts = 16
	agents := startAgents(t, tr, hosts)
	cj, err := OpenCoordinatorJournal(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cj.Close()
	d := NewDispatcher(fastDispatch(), tr)
	d.AttachJournal(cj)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, a := range agents {
		wg.Add(1)
		go func(i int, host string) {
			defer wg.Done()
			<-start
			for r := 0; r < 8; r++ {
				req := wire.ActionRequest{Op: wire.OpStart, Host: host, Service: "app",
					InstanceID: fmt.Sprintf("i-%d-%d", i, r)}
				if _, err := d.Do(context.Background(), req); err != nil {
					t.Error(err)
					return
				}
			}
		}(i, a.Host())
	}
	close(start)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent journaled dispatch storm wedged")
	}
	if p := cj.Pending(); len(p) != 0 {
		t.Fatalf("%d actions pending after clean storm", len(p))
	}
}
