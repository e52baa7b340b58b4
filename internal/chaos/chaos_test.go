package chaos

import (
	"context"
	"reflect"
	"testing"

	"autoglobe/internal/obs"
	"autoglobe/internal/wire"
)

func TestPlanDeterministic(t *testing.T) {
	hosts := []string{"h1", "h2", "h3"}
	a := NewPlan(42, 600, hosts, DefaultProfile())
	b := NewPlan(42, 600, hosts, DefaultProfile())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	if len(a) == 0 {
		t.Fatal("default profile over 600 steps injected nothing")
	}
	c := NewPlan(43, 600, hosts, DefaultProfile())
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	for i := 1; i < len(a); i++ {
		if a[i].Step < a[i-1].Step {
			t.Fatalf("plan not sorted: step %d after %d", a[i].Step, a[i-1].Step)
		}
	}
}

func TestPlanQuietTail(t *testing.T) {
	p := DefaultProfile()
	p.QuietTail = 100
	// Paired releases/heals may land in the tail; fresh faults may not.
	for _, in := range NewPlan(7, 300, []string{"h1"}, p) {
		switch in.Kind {
		case KindRelease, KindHeal:
			continue
		default:
			if in.Step >= 200 {
				t.Fatalf("fresh fault %s scheduled at %d, inside the quiet tail", in.Kind, in.Step)
			}
		}
	}
}

func TestDriverAppliesInOrder(t *testing.T) {
	net := wire.NewLoopback()
	defer net.Close()
	delivered := 0
	if err := net.Listen("h1", func(env *wire.Envelope) (*wire.Envelope, error) {
		delivered++
		ack := wire.NewEnvelope(wire.TypeAck, "h1", env.From)
		ack.Ack = &wire.ActionAck{Key: env.Action.Key, OK: true}
		return ack, nil
	}); err != nil {
		t.Fatal(err)
	}
	crashes := 0
	plan := []Injection{
		{Step: 0, Kind: KindHold, Host: "h1", N: 1},
		{Step: 1, Kind: KindCrash},
		{Step: 2, Kind: KindRelease, Host: "h1"},
	}
	d := NewDriver(plan, net)
	d.Crash = func() error { crashes++; return nil }
	d.Instrument(obs.NewRegistry())
	ctx := context.Background()

	if err := d.Apply(0); err != nil {
		t.Fatal(err)
	}
	// The hold is armed: the next call is parked, not delivered.
	act := wire.NewEnvelope(wire.TypeAction, "c", "h1")
	act.Action = &wire.ActionRequest{Key: "k", Op: wire.OpStart}
	if _, err := net.Call(ctx, "h1", act); err != wire.ErrTimeout {
		t.Fatalf("held call: err = %v, want ErrTimeout", err)
	}
	if delivered != 0 {
		t.Fatal("held message reached the handler")
	}
	if err := d.Apply(2); err != nil { // fires the crash AND the release
		t.Fatal(err)
	}
	if crashes != 1 {
		t.Fatalf("crashes = %d, want 1", crashes)
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d, want the released message", delivered)
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining = %d, want 0", d.Remaining())
	}
	want := map[Kind]int{KindHold: 1, KindCrash: 1, KindRelease: 1}
	if got := d.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stats = %v, want %v", got, want)
	}
}

func TestDriverWithoutCrashCallback(t *testing.T) {
	net := wire.NewLoopback()
	defer net.Close()
	d := NewDriver([]Injection{{Step: 0, Kind: KindCrash}}, net)
	if err := d.Apply(0); err != nil {
		t.Fatalf("crash without callback should be skipped, got %v", err)
	}
	if got := d.Stats()[KindCrash]; got != 0 {
		t.Fatalf("skipped crash counted: %d", got)
	}
}
