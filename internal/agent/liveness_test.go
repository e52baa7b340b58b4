package agent

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"autoglobe/internal/cluster"
	"autoglobe/internal/monitor"
	"autoglobe/internal/service"
	"autoglobe/internal/wire"
)

// TestSuccessorInheritsLiveness: a takeover hands the predecessor's
// failure detector to the successor. Host h2 falls silent one minute
// before the leader is killed; the successor, which never heard from
// h2, still counts the misses the predecessor started and declares it
// dead at minute 11, as the leader would have. Host h3, dead and
// journaled since minute 5, stays dead across the takeover and must
// still earn its two consecutive beats before it is re-pooled.
func TestSuccessorInheritsLiveness(t *testing.T) {
	p, e, tr, _ := electionPlane(t, 2)
	ctx := context.Background()
	silent := map[string]bool{}
	died := map[string]int{}
	step := func(minute int, beat ...string) (recovered []string) {
		t.Helper()
		if err := e.Tick(ctx, minute); err != nil {
			t.Fatalf("minute %d: tick: %v", minute, err)
		}
		for _, host := range p.dep.Cluster().Names() {
			if silent[host] {
				continue
			}
			rep, _ := p.Reporter(host)
			rep.Begin(minute, 0.4, 0.3)
			for _, inst := range p.dep.InstancesOn(host) {
				rep.Sample(inst.ID, inst.Service, 0.4)
			}
			sendCtx, cancel := context.WithTimeout(ctx, time.Second)
			_ = rep.Send(sendCtx)
			cancel()
		}
		if !e.LeaderAlive() {
			return nil
		}
		coord := p.Coordinator()
		for _, host := range beat {
			if err := coord.Ingest(wire.Heartbeat{Host: host, Minute: minute, CPU: 0.4}); err != nil {
				t.Fatal(err)
			}
		}
		if err := coord.ObserveServices(minute); err != nil {
			t.Fatalf("minute %d: observe: %v", minute, err)
		}
		dead, recovered := coord.CheckLiveness(ctx, minute)
		for _, host := range dead {
			died[host] = minute
		}
		return recovered
	}
	isolate := func(host string) {
		silent[host] = true
		tr.Isolate(host)
	}

	for m := 0; m < 9; m++ {
		if m == 2 {
			isolate("h3") // last beat at minute 1: dead at 5
		}
		if m == 8 {
			isolate("h2") // last beat at minute 7
		}
		step(m)
	}
	if died["h3"] != 5 || len(died) != 1 {
		t.Fatalf("deaths before the kill %v, want h3 at minute 5", died)
	}
	first := p.Coordinator()
	if killed, err := e.KillLeader(9); err != nil || !killed {
		t.Fatalf("KillLeader = (%v, %v), want (true, nil)", killed, err)
	}
	step(9) // leaderless
	step(10)
	if e.Takeovers() != 1 || p.Coordinator() == first {
		t.Fatalf("takeovers = %d, want 1 onto a standby", e.Takeovers())
	}
	step(11)
	if died["h2"] != 11 {
		t.Fatalf("the successor declared h2 dead at minute %d, want 11 (deaths %v)", died["h2"], died)
	}

	live := p.Coordinator().Liveness()
	if live.Tracking("h3") || !slices.Equal(live.Down(), []string{"h2", "h3"}) {
		t.Fatalf("after the takeover: Tracking(h3) %t, Down %v; want false and [h2 h3]", live.Tracking("h3"), live.Down())
	}
	if rec := step(12, "h3"); len(rec) != 0 {
		t.Fatalf("recovered %v after one beat of h3, want none", rec)
	}
	if rec := step(13, "h3"); !slices.Equal(rec, []string{"h3"}) {
		t.Fatalf("recovered %v after two beats of h3, want [h3]", rec)
	}
}

// BenchmarkLivenessMinute times one control-plane minute of the failure
// detector at fleet scale: 1,007 hosts beat, each under the ingest lock
// as Handle takes it, then CheckLiveness lists the probes and sweeps.
func BenchmarkLivenessMinute(b *testing.B) {
	const hosts = 1007
	lms, err := monitor.NewSystem(monitor.PaperParams(), nil)
	if err != nil {
		b.Fatal(err)
	}
	tr := wire.NewLoopback()
	defer tr.Close()
	c, err := NewCoordinator("", service.NewDeployment(cluster.MustNew(), service.MustCatalog()), lms, tr)
	if err != nil {
		b.Fatal(err)
	}
	slots := make([]*hostSlot, hosts)
	for i := range slots {
		slots[i] = c.slotFor(fmt.Sprintf("host-%04d", i))
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for m := 0; m < b.N; m++ {
		for _, hs := range slots {
			c.ingestMu.Lock()
			c.beatLocked(hs, m)
			c.ingestMu.Unlock()
		}
		c.CheckLiveness(ctx, m)
	}
}
