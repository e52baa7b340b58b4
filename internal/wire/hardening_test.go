package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"autoglobe/internal/obs"
)

// TestServerDropsSlowClient pins the slow-loris hardening: a client
// that opens a connection, sends a partial request header and then
// stalls must be disconnected by ReadHeaderTimeout — while well-behaved
// calls keep flowing on the same listener.
func TestServerDropsSlowClient(t *testing.T) {
	tr := NewHTTP()
	tr.ReadHeaderTimeout = 150 * time.Millisecond
	tr.ReadTimeout = 300 * time.Millisecond
	defer tr.Close()
	base, err := tr.ListenOn("agent", "127.0.0.1:0", echoHandler("agent"))
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.DialTimeout("tcp", strings.TrimPrefix(base, "http://"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Partial header, then silence: never send the terminating CRLF.
	if _, err := io.WriteString(conn, "POST "+WirePath+" HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}

	// A normal call through the same listener succeeds while the
	// slow-loris connection is pending.
	if _, err := tr.Call(context.Background(), "agent",
		ActionEnvelope("c", "agent", ActionRequest{Key: "k1", Op: OpStart, Service: "FI"})); err != nil {
		t.Fatalf("healthy call failed alongside a stalled client: %v", err)
	}

	// The server must hang up on the stalled connection within a couple
	// of header timeouts, not hold it open indefinitely. (It may write a
	// 408 before closing; keep reading until the close.)
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 512)
	for {
		_, err := conn.Read(buf)
		if err == nil {
			continue
		}
		if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
			t.Fatal("server kept the stalled connection open past ReadHeaderTimeout")
		}
		// EOF or connection reset: the server dropped us — hardening works.
		return
	}
}

// TestBodyReadDeadlineIsTimeout pins the Call error mapping on both
// transports: a context deadline that expires *after* the response
// headers arrive but before the body completes must surface as
// ErrTimeout, exactly like a deadline expiring during connect.
func TestBodyReadDeadlineIsTimeout(t *testing.T) {
	t.Run("http", func(t *testing.T) {
		// A server that sends headers immediately, then stalls mid-body.
		stall := make(chan struct{})
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", BinaryContentType)
			w.Header().Set("Content-Length", "4096")
			w.WriteHeader(http.StatusOK)
			w.Write([]byte{frameMagic, 0xFB, 0x0F, 0, 0, Version}) // 6 of 4096 bytes
			w.(http.Flusher).Flush()
			<-stall
		}))
		defer srv.Close()
		// LIFO: unblock the handler before srv.Close waits for it.
		defer close(stall)

		tr := NewHTTP()
		defer tr.Close()
		tr.Register("slow", srv.URL)
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_, err := tr.Call(ctx, "slow", ActionEnvelope("c", "slow", ActionRequest{Key: "k", Op: OpStart}))
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("mid-body deadline expiry: err = %v, want ErrTimeout", err)
		}
	})

	t.Run("loopback", func(t *testing.T) {
		tr := NewLoopback()
		defer tr.Close()
		if err := tr.Listen("slow", echoHandler("slow")); err != nil {
			t.Fatal(err)
		}
		tr.SetLatency("slow", 500*time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_, err := tr.Call(ctx, "slow", ActionEnvelope("c", "slow", ActionRequest{Key: "k", Op: OpStart}))
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("deadline expiry during delivery: err = %v, want ErrTimeout", err)
		}
	})
}

// TestServerRefusesNonFrames: binary frames are the only encoding the
// wire endpoint speaks. A JSON envelope, a body without the frame magic,
// an empty body and a frame of each retired rule-admin kind (7, 8, 9)
// are each refused with 400, and the handler never runs.
func TestServerRefusesNonFrames(t *testing.T) {
	tr := NewHTTP()
	defer tr.Close()
	calls := 0
	base, err := tr.ListenOn("agent", "127.0.0.1:0", func(env *Envelope) (*Envelope, error) {
		calls++
		return echoHandler("agent")(env)
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(ActionEnvelope("c", "agent", ActionRequest{Key: "k", Op: OpStart}))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := AppendEnvelope(nil, ActionEnvelope("c", "agent", ActionRequest{Key: "k", Op: OpStart}))
	if err != nil {
		t.Fatal(err)
	}
	frame[0] = 0x7B // a valid frame but for its first byte
	seeds := fuzzSeeds(t)
	for name, body := range map[string][]byte{
		"json envelope": doc, "no magic": frame, "empty": nil,
		"kind 7 ruleGet":  seeds["seed-rule-get"].frame,
		"kind 8 rulePut":  seeds["seed-rule-put"].frame,
		"kind 9 ruleList": seeds["seed-rule-list"].frame,
	} {
		code, msg, err := rawPost(base, body)
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d %q, want 400", name, code, msg)
		}
	}
	if calls != 0 {
		t.Fatalf("handler ran %d times for refused bodies, want 0", calls)
	}
}

// TestMountServesSidecarHandlers verifies obs endpoints can ride on the
// wire listener: handlers mounted before ListenOn are served next to
// WirePath, and WirePath itself cannot be shadowed.
func TestMountServesSidecarHandlers(t *testing.T) {
	tr := NewHTTP()
	defer tr.Close()
	tr.Mount("/healthz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	tr.Mount(WirePath, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("WirePath was shadowed by Mount")
	}))
	base, err := tr.ListenOn("agent", "127.0.0.1:0", echoHandler("agent"))
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok" {
		t.Fatalf("mounted handler: status %d body %q", resp.StatusCode, body)
	}
	// The wire route still works.
	if _, err := tr.Call(context.Background(), "agent",
		ActionEnvelope("c", "agent", ActionRequest{Key: "k1", Op: OpStart, Service: "FI"})); err != nil {
		t.Fatalf("wire call after Mount: %v", err)
	}
}

// TestTransportInstrumentation exercises the metric hooks on both
// transports: calls by type, failures by cause, latency observations,
// and (HTTP only) envelope bytes.
func TestTransportInstrumentation(t *testing.T) {
	t.Run("loopback", func(t *testing.T) {
		r := obs.NewRegistry()
		tr := NewLoopback()
		defer tr.Close()
		tr.Instrument(r)
		if err := tr.Listen("agent", echoHandler("agent")); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for i := 0; i < 3; i++ {
			if _, err := tr.Call(ctx, "agent", HeartbeatEnvelope("h1", "agent", Heartbeat{Host: "h1", Minute: i})); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tr.Call(ctx, "ghost", ActionEnvelope("c", "ghost", ActionRequest{Key: "k", Op: OpStop})); !errors.Is(err, ErrNoRoute) {
			t.Fatalf("err = %v, want ErrNoRoute", err)
		}
		tr.DropNext("agent", 1)
		if _, err := tr.Call(ctx, "agent", ActionEnvelope("c", "agent", ActionRequest{Key: "k2", Op: OpStart, Service: "FI"})); !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}

		snap := r.Snapshot()
		for key, want := range map[string]float64{
			// Labels render sorted by key; failed attempts still count
			// as calls (the ghost action and the dropped action).
			`autoglobe_wire_calls_total{transport="loopback",type="heartbeat"}`: 3,
			`autoglobe_wire_calls_total{transport="loopback",type="action"}`:    2,
			`autoglobe_wire_errors_total{cause="noRoute",transport="loopback"}`: 1,
			`autoglobe_wire_errors_total{cause="timeout",transport="loopback"}`: 1,
			`autoglobe_wire_call_seconds_count{transport="loopback"}`:           5,
		} {
			if snap[key] != want {
				t.Errorf("snapshot[%s] = %v, want %v", key, snap[key], want)
			}
		}
	})

	t.Run("http", func(t *testing.T) {
		r := obs.NewRegistry()
		tr := NewHTTP()
		defer tr.Close()
		tr.Instrument(r)
		if err := tr.Listen("agent", echoHandler("agent")); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Call(context.Background(), "agent",
			ActionEnvelope("c", "agent", ActionRequest{Key: "k1", Op: OpStart, Service: "FI"})); err != nil {
			t.Fatal(err)
		}
		snap := r.Snapshot()
		if got := snap[`autoglobe_wire_calls_total{transport="http",type="action"}`]; got != 1 {
			t.Errorf("action calls = %v, want 1", got)
		}
		if got := snap[`autoglobe_wire_bytes_total{direction="sent",transport="http"}`]; got <= 0 {
			t.Errorf("sent bytes = %v, want > 0", got)
		}
		if got := snap[`autoglobe_wire_bytes_total{direction="received",transport="http"}`]; got <= 0 {
			t.Errorf("received bytes = %v, want > 0", got)
		}
		if got := snap[`autoglobe_wire_call_seconds_count{transport="http"}`]; got != 1 {
			t.Errorf("latency observations = %v, want 1", got)
		}
	})
}
