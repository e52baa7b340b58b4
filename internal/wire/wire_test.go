package wire

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestEnvelopeValidate(t *testing.T) {
	hb := HeartbeatEnvelope("blade1", "coordinator", Heartbeat{Host: "blade1", Minute: 3, CPU: 0.5})
	if err := hb.Validate(); err != nil {
		t.Fatalf("valid heartbeat rejected: %v", err)
	}
	cases := []struct {
		name string
		env  *Envelope
		want string
	}{
		{"nil", nil, "nil envelope"},
		{"version", &Envelope{Version: 99, Type: TypeAck, Ack: &ActionAck{}}, "protocol version"},
		{"missing payload", NewEnvelope(TypeHeartbeat, "a", "b"), "without heartbeat"},
		{"missing key", ActionEnvelope("c", "a", ActionRequest{Op: OpStart}), "idempotency key"},
		{"unknown type", &Envelope{Version: Version, Type: "gossip"}, "unknown message type"},
		{"ruleGet no name", RuleGetEnvelope("a", "c", RuleGet{}), "without rule-base name"},
		{"rulePut no name", RulePutEnvelope("a", "c", RulePut{Source: "IF x IS y THEN z IS applicable"}), "without rule-base name"},
		{"rulePut empty", RulePutEnvelope("a", "c", RulePut{Name: "serviceIdle"}), "without source, version or error"},
		{"ruleList no payload", NewEnvelope(TypeRuleList, "a", "c"), "without ruleList payload"},
	}
	for _, c := range cases {
		err := c.env.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", c.name, err, c.want)
		}
	}
}

func TestEnvelopeJSONRoundTrip(t *testing.T) {
	env := ActionEnvelope("coordinator", "blade2", ActionRequest{
		Key: "act-7", Op: OpBind, Host: "blade2", Service: "FI",
		InstanceID: "FI-3", DeadlineUnixMS: 12345,
	})
	env.Seq = 42
	buf, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	var back Envelope
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.Action.Key != "act-7" || back.Action.Op != OpBind || back.Seq != 42 ||
		back.Action.InstanceID != "FI-3" || back.Action.DeadlineUnixMS != 12345 {
		t.Errorf("round trip mangled envelope: %+v", back)
	}
}

func TestRuleEnvelopeJSONRoundTrip(t *testing.T) {
	env := RulePutEnvelope("admin", "coordinator", RulePut{
		Name: "select/placement", Version: 2, Hash: "deadbeef",
		Source: "IF cpuLoad IS high THEN score IS applicable\n", Activate: true,
	})
	buf, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	var back Envelope
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	p := back.RulePut
	if p.Name != "select/placement" || p.Version != 2 || p.Hash != "deadbeef" ||
		!p.Activate || p.Source != env.RulePut.Source {
		t.Errorf("round trip mangled rulePut: %+v", p)
	}
}

// echoHandler acks actions and probe-acks probes.
func echoHandler(node string) Handler {
	return func(env *Envelope) (*Envelope, error) {
		switch env.Type {
		case TypeAction:
			return AckEnvelope(node, env.From, ActionAck{Key: env.Action.Key, OK: true}), nil
		case TypeProbe:
			reply := NewEnvelope(TypeProbeAck, node, env.From)
			reply.Probe = env.Probe
			return reply, nil
		default:
			return AckEnvelope(node, env.From, ActionAck{OK: true}), nil
		}
	}
}

// transportContract exercises the behavior both transports must share.
func transportContract(t *testing.T, tr Transport) {
	t.Helper()
	if err := tr.Listen("agent", echoHandler("agent")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Listen("agent", echoHandler("agent")); err == nil {
		t.Error("duplicate Listen succeeded")
	}
	ctx := context.Background()

	reply, err := tr.Call(ctx, "agent", ActionEnvelope("c", "agent", ActionRequest{Key: "k1", Op: OpStart, Service: "FI"}))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if reply == nil || reply.Type != TypeAck || !reply.Ack.OK || reply.Ack.Key != "k1" {
		t.Fatalf("reply = %+v, want OK ack for k1", reply)
	}

	if _, err := tr.Call(ctx, "ghost", ActionEnvelope("c", "ghost", ActionRequest{Key: "k2", Op: OpStop})); err == nil {
		t.Error("Call to unknown node succeeded")
	}

	// Invalid envelopes never reach the peer.
	if _, err := tr.Call(ctx, "agent", &Envelope{Version: 99, Type: TypeAck, Ack: &ActionAck{}}); err == nil {
		t.Error("version-mismatched envelope accepted")
	}

	pr, err := tr.Call(ctx, "agent", ProbeEnvelope("c", "agent", Probe{Host: "agent", Minute: 9}))
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if pr.Type != TypeProbeAck || pr.Probe.Minute != 9 {
		t.Fatalf("probe reply = %+v", pr)
	}
}

func TestLoopbackContract(t *testing.T) {
	tr := NewLoopback()
	defer tr.Close()
	transportContract(t, tr)
}

func TestHTTPContract(t *testing.T) {
	tr := NewHTTP()
	defer tr.Close()
	transportContract(t, tr)
}

func TestHTTPRejectsVersionMismatchOnWire(t *testing.T) {
	tr := NewHTTP()
	defer tr.Close()
	if err := tr.Listen("agent", echoHandler("agent")); err != nil {
		t.Fatal(err)
	}
	// Hand-craft a frame with a bad version and post it raw: the server
	// must reject it before the handler runs.
	raw := NewHTTP()
	defer raw.Close()
	base, _ := tr.Addr("agent")
	raw.Register("agent", base)
	env := ActionEnvelope("c", "agent", ActionRequest{Key: "k", Op: OpStart})
	env.Version = Version + 1
	_, err := rawPost(base, env)
	if err == nil || !strings.Contains(err.Error(), "protocol version") {
		t.Fatalf("bad-version frame not rejected: %v", err)
	}
}

func TestHTTPCallTimeout(t *testing.T) {
	tr := NewHTTP()
	defer tr.Close()
	block := make(chan struct{})
	defer close(block)
	if err := tr.Listen("slow", func(env *Envelope) (*Envelope, error) {
		<-block
		return AckEnvelope("slow", env.From, ActionAck{OK: true}), nil
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := tr.Call(ctx, "slow", ActionEnvelope("c", "slow", ActionRequest{Key: "k", Op: OpStart}))
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}
