package wire

import (
	"bytes"
	"context"
	"net/http"
	"testing"
	"time"
)

// rawPost posts body to a node's wire endpoint as it is, past every
// client-side check, and returns the status code and response body.
func rawPost(base string, body []byte) (int, string, error) {
	resp, err := http.Post(base+WirePath, BinaryContentType, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var msg bytes.Buffer
	_, err = msg.ReadFrom(resp.Body)
	return resp.StatusCode, msg.String(), err
}

func TestLoopbackDropNext(t *testing.T) {
	tr := NewLoopback()
	defer tr.Close()
	delivered := 0
	tr.Listen("a", func(env *Envelope) (*Envelope, error) { //nolint:errcheck
		delivered++
		return AckEnvelope("a", env.From, ActionAck{Key: env.Action.Key, OK: true}), nil
	})
	ctx := context.Background()
	tr.DropNext("a", 2)
	for i := 0; i < 2; i++ {
		if _, err := tr.Call(ctx, "a", ActionEnvelope("c", "a", ActionRequest{Key: "k", Op: OpStart})); err != ErrTimeout {
			t.Fatalf("dropped call %d: err = %v, want ErrTimeout", i, err)
		}
	}
	if delivered != 0 {
		t.Fatalf("handler ran %d times during drop window", delivered)
	}
	if _, err := tr.Call(ctx, "a", ActionEnvelope("c", "a", ActionRequest{Key: "k", Op: OpStart})); err != nil {
		t.Fatalf("call after drop window: %v", err)
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	if calls, dropped := tr.Stats(); calls != 3 || dropped != 2 {
		t.Errorf("stats = (%d, %d), want (3, 2)", calls, dropped)
	}
}

// TestLoopbackDropReply: the handler runs — the operation is applied —
// but the ack vanishes. This is the failure mode idempotency keys
// exist for.
func TestLoopbackDropReply(t *testing.T) {
	tr := NewLoopback()
	defer tr.Close()
	delivered := 0
	tr.Listen("a", func(env *Envelope) (*Envelope, error) { //nolint:errcheck
		delivered++
		return AckEnvelope("a", env.From, ActionAck{Key: env.Action.Key, OK: true}), nil
	})
	tr.DropReplyNext("a", 1)
	_, err := tr.Call(context.Background(), "a", ActionEnvelope("c", "a", ActionRequest{Key: "k", Op: OpStart}))
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d: reply drop must still run the handler", delivered)
	}
}

func TestLoopbackPartition(t *testing.T) {
	tr := NewLoopback()
	defer tr.Close()
	tr.Listen("a", echoHandler("a")) //nolint:errcheck
	tr.Listen("b", echoHandler("b")) //nolint:errcheck
	ctx := context.Background()
	tr.Isolate("a")
	if _, err := tr.Call(ctx, "a", ActionEnvelope("c", "a", ActionRequest{Key: "k", Op: OpStart})); err != ErrTimeout {
		t.Fatalf("call into partition: err = %v, want ErrTimeout", err)
	}
	// Traffic from the isolated node vanishes too.
	if _, err := tr.Call(ctx, "b", ActionEnvelope("a", "b", ActionRequest{Key: "k", Op: OpStart})); err != ErrTimeout {
		t.Fatalf("call out of partition: err = %v, want ErrTimeout", err)
	}
	// Unaffected pairs keep working.
	if _, err := tr.Call(ctx, "b", ActionEnvelope("c", "b", ActionRequest{Key: "k", Op: OpStart})); err != nil {
		t.Fatalf("healthy pair: %v", err)
	}
	tr.Heal("a")
	if _, err := tr.Call(ctx, "a", ActionEnvelope("c", "a", ActionRequest{Key: "k", Op: OpStart})); err != nil {
		t.Fatalf("call after heal: %v", err)
	}
}

func TestLoopbackLatencyTimesOut(t *testing.T) {
	tr := NewLoopback()
	defer tr.Close()
	tr.Listen("a", echoHandler("a")) //nolint:errcheck
	tr.SetLatency("a", 30*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := tr.Call(ctx, "a", ActionEnvelope("c", "a", ActionRequest{Key: "k", Op: OpStart})); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// A generous deadline rides out the latency.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	if _, err := tr.Call(ctx2, "a", ActionEnvelope("c", "a", ActionRequest{Key: "k", Op: OpStart})); err != nil {
		t.Fatalf("err = %v, want delivered after latency", err)
	}
}

func TestLoopbackDropRateDeterministic(t *testing.T) {
	run := func() []bool {
		tr := NewLoopback()
		defer tr.Close()
		tr.Listen("a", echoHandler("a")) //nolint:errcheck
		tr.SetDropRate(0.5, 7)
		var outcomes []bool
		for i := 0; i < 32; i++ {
			_, err := tr.Call(context.Background(), "a", ActionEnvelope("c", "a", ActionRequest{Key: "k", Op: OpStart}))
			outcomes = append(outcomes, err == nil)
		}
		return outcomes
	}
	a, b := run(), run()
	var delivered int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded drop sequence diverged at call %d", i)
		}
		if a[i] {
			delivered++
		}
	}
	if delivered == 0 || delivered == len(a) {
		t.Fatalf("drop rate 0.5 delivered %d/%d", delivered, len(a))
	}
}

// TestLoopbackDuplicateNext: a duplicated delivery runs the handler
// twice for one Call; an idempotent receiver executes once and answers
// the replay from its applied cache.
func TestLoopbackDuplicateNext(t *testing.T) {
	tr := NewLoopback()
	defer tr.Close()
	delivered, applied := 0, map[string]ActionAck{}
	tr.Listen("a", func(env *Envelope) (*Envelope, error) { //nolint:errcheck
		delivered++
		// A miniature idempotency cache, the shape agents implement.
		if cached, ok := applied[env.Action.Key]; ok {
			cached.Duplicate = true
			return AckEnvelope("a", env.From, cached), nil
		}
		ack := ActionAck{Key: env.Action.Key, OK: true}
		applied[env.Action.Key] = ack
		return AckEnvelope("a", env.From, ack), nil
	})
	tr.DuplicateNext("a", 1)
	reply, err := tr.Call(context.Background(), "a", ActionEnvelope("c", "a", ActionRequest{Key: "k", Op: OpStart}))
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Fatalf("handler ran %d times, want 2 (duplicated delivery)", delivered)
	}
	if !reply.Ack.OK || !reply.Ack.Duplicate {
		t.Fatalf("caller saw ack %+v, want the cache-served duplicate", reply.Ack)
	}
	// The fault is one-shot.
	delivered = 0
	if _, err := tr.Call(context.Background(), "a", ActionEnvelope("c", "a", ActionRequest{Key: "k2", Op: OpStart})); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("handler ran %d times after the window, want 1", delivered)
	}
}

// TestLoopbackHoldAndDeliver: a held message times out for its sender
// but is not lost — DeliverHeld lands it later, modelling stale traffic
// arriving after a partition heals.
func TestLoopbackHoldAndDeliver(t *testing.T) {
	tr := NewLoopback()
	defer tr.Close()
	var seen []string
	tr.Listen("a", func(env *Envelope) (*Envelope, error) { //nolint:errcheck
		seen = append(seen, env.Action.Key)
		return AckEnvelope("a", env.From, ActionAck{Key: env.Action.Key, OK: true}), nil
	})
	ctx := context.Background()
	tr.HoldNext("a", 2)
	for _, k := range []string{"k1", "k2"} {
		if _, err := tr.Call(ctx, "a", ActionEnvelope("c", "a", ActionRequest{Key: k, Op: OpStart})); err != ErrTimeout {
			t.Fatalf("held call %s: err = %v, want ErrTimeout", k, err)
		}
	}
	if len(seen) != 0 || tr.Held("a") != 2 {
		t.Fatalf("held messages reached the handler early (seen %v, held %d)", seen, tr.Held("a"))
	}
	// Later traffic overtakes the held messages: delivery is reordered.
	if _, err := tr.Call(ctx, "a", ActionEnvelope("c", "a", ActionRequest{Key: "k3", Op: OpStart})); err != nil {
		t.Fatal(err)
	}
	if n := tr.DeliverHeld("a"); n != 2 {
		t.Fatalf("DeliverHeld delivered %d, want 2", n)
	}
	want := []string{"k3", "k1", "k2"}
	if len(seen) != 3 || seen[0] != want[0] || seen[1] != want[1] || seen[2] != want[2] {
		t.Fatalf("delivery order %v, want %v (reordered, then held in arrival order)", seen, want)
	}
	if tr.Held("a") != 0 || tr.DeliverHeld("a") != 0 {
		t.Fatal("held queue not drained")
	}
}

func TestLoopbackClosed(t *testing.T) {
	tr := NewLoopback()
	tr.Listen("a", echoHandler("a")) //nolint:errcheck
	tr.Close()
	if err := tr.Listen("b", echoHandler("b")); err != ErrClosed {
		t.Errorf("Listen after close: %v", err)
	}
	if _, err := tr.Call(context.Background(), "a", ActionEnvelope("c", "a", ActionRequest{Key: "k", Op: OpStart})); err != ErrClosed {
		t.Errorf("Call after close: %v", err)
	}
}
