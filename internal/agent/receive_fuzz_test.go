package agent

import (
	"testing"

	"autoglobe/internal/cluster"
	"autoglobe/internal/monitor"
	"autoglobe/internal/service"
	"autoglobe/internal/wire"
)

// FuzzCoordinatorReceive feeds whatever bytes reach the coordinator's
// wire endpoint through the decoder a transport runs and, when they
// decode, into one paper-landscape coordinator's Handle — the whole
// path an unauthenticated peer can drive. Whatever arrives, Handle must
// not panic, every reply must re-encode as a frame, the heartbeat count
// must never fall, and no frame of a retired rule-admin kind (7, 8, 9)
// may decode, so none reaches Handle. The coordinator lives across
// inputs, so its session dictionary and ingest slots carry over from
// one input to the next as they do on a socket. Run with
//
//	go test -run '^$' -fuzz FuzzCoordinatorReceive ./internal/agent
func FuzzCoordinatorReceive(f *testing.F) {
	dep, err := service.BuildPaperDeployment(cluster.Paper(), service.FullMobility, 1)
	if err != nil {
		f.Fatal(err)
	}
	lms, err := monitor.NewSystem(monitor.PaperParams(), nil)
	if err != nil {
		f.Fatal(err)
	}
	tr := wire.NewLoopback()
	f.Cleanup(func() { tr.Close() })
	c, err := NewCoordinator(CoordinatorNode, dep, lms, tr)
	if err != nil {
		f.Fatal(err)
	}

	host := dep.Cluster().Names()[0]
	var samples []wire.InstanceSample
	for _, inst := range dep.InstancesOn(host) {
		samples = append(samples, wire.InstanceSample{ID: inst.ID, Service: inst.Service, Load: 0.3})
	}
	seeds := []*wire.Envelope{
		wire.HeartbeatEnvelope(host, CoordinatorNode, wire.Heartbeat{Host: host, Minute: 3, CPU: 0.5, Mem: 0.25, Instances: samples}),
		wire.HeartbeatEnvelope(host, CoordinatorNode, wire.Heartbeat{Host: host, Minute: 4, Session: 1, HostIndex: 1,
			Instances: []wire.InstanceSample{{Index: 2, Load: 0.4}}}),
		wire.HelloEnvelope("b99", CoordinatorNode, wire.Hello{Host: "b99", PerformanceIndex: 1, MemoryMB: 4096}),
		wire.LeaseEnvelope("standby-1", CoordinatorNode, wire.Lease{Leader: "standby-1", Epoch: 2, Minute: 5}),
		wire.ProbeEnvelope(CoordinatorNode, host, wire.Probe{Host: host, Minute: 5}),
	}
	for _, env := range seeds {
		b, err := wire.AppendEnvelope(nil, env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// A hello frame relabelled with each retired kind byte.
	hello, err := wire.AppendEnvelope(nil, seeds[2])
	if err != nil {
		f.Fatal(err)
	}
	for kind := byte(7); kind <= 9; kind++ {
		b := append([]byte(nil), hello...)
		b[6] = kind
		f.Add(b)
	}

	in := wire.NewInterner()
	f.Fuzz(func(t *testing.T, b []byte) {
		env, _, err := wire.DecodeEnvelope(b, in)
		if err != nil {
			return
		}
		defer wire.ReleaseEnvelope(env)
		if kind := b[6]; kind >= 7 && kind <= 9 {
			t.Fatalf("a frame of retired kind %d decoded to %s", kind, env.Type)
		}
		before := c.Heartbeats()
		reply, err := c.Handle(env)
		if err == nil && reply != nil {
			if _, err := wire.AppendEnvelope(nil, reply); err != nil {
				t.Fatalf("%s reply %+v does not encode: %v", env.Type, reply, err)
			}
			wire.ReleaseEnvelope(reply)
		}
		if after := c.Heartbeats(); after < before {
			t.Fatalf("heartbeats fell from %d to %d", before, after)
		}
	})
}
