package console

import (
	"context"
	"strings"
	"testing"

	"autoglobe/internal/agent"
	"autoglobe/internal/cluster"
	"autoglobe/internal/monitor"
	"autoglobe/internal/service"
	"autoglobe/internal/wire"
)

func TestPlaneView(t *testing.T) {
	dep, err := service.BuildPaperDeployment(cluster.Paper(), service.ConstrainedMobility, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	lms, err := monitor.NewSystem(monitor.PaperParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := wire.NewLoopback()
	p, err := agent.NewPlane(agent.PlaneConfig{Transport: tr}, dep, lms)
	if err != nil {
		t.Fatal(err)
	}
	// One host beats, the rest stay unknown.
	rep, _ := p.Reporter("Blade1")
	rep.Begin(0, 0.4, 0)
	if err := rep.Send(context.Background()); err != nil {
		t.Fatal(err)
	}

	v := PlaneView(dep, p)
	for _, want := range []string{"CONTROL PLANE", "coordinator", "1 heartbeats ingested", "dispatcher", "Blade1"} {
		if !strings.Contains(v, want) {
			t.Errorf("plane view missing %q:\n%s", want, v)
		}
	}
	var sawAlive, sawUnknown bool
	for _, line := range strings.Split(v, "\n") {
		if strings.Contains(line, "Blade1 ") && strings.Contains(line, "alive") {
			sawAlive = true
		}
		if strings.Contains(line, "Blade2 ") && strings.Contains(line, "unknown") {
			sawUnknown = true
		}
	}
	if !sawAlive || !sawUnknown {
		t.Errorf("liveness states not rendered (alive=%v unknown=%v):\n%s", sawAlive, sawUnknown, v)
	}
}
