package main

import (
	"context"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"autoglobe/internal/agent"
	"autoglobe/internal/archive"
	"autoglobe/internal/obs"
	"autoglobe/internal/service"
	"autoglobe/internal/spec"
)

// parse runs a command line through the daemon's own flag set and
// validation, as main does.
func parse(args ...string) (options, error) {
	var o options
	fs := flag.NewFlagSet("autoglobe-agentd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o.bind(fs)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	return o, o.validate()
}

func TestValidateRejections(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // the whole message
	}{
		{"-mode coordinator -landscape l.xml -chaos-seed 3", "-chaos-seed only applies to -mode demo"},
		{"-mode demo -landscape l.xml -standby-of http://x", "-standby-of only applies to -mode standby"},
		{"-mode coordinator -landscape l.xml -standbys 2", "-standbys only applies to -mode demo"},
		{"-mode demo -landscape l.xml -standbys -1", "-standbys -1 must be >= 0"},
		{"-mode demo -landscape l.xml -lease-ttl 0", "-lease-ttl 0 must be positive"},
		{"-mode agent -host b1 -archive-dir a", "-archive-dir only applies to -mode coordinator or demo"},
		{"-mode agent -host b1 -rules-dir r", "-rules-dir only applies to -mode coordinator or demo"},
		{"-mode agent -host b1 -shadow-rules-dir r", "-shadow-rules-dir only applies to -mode coordinator or demo"},
		{"-mode demo -landscape l.xml -forecast -1", "-forecast -1 must be >= 0"},
		{"-mode agent -host b1 -forecast 30", "-forecast only applies to -mode coordinator or demo"},
		{"-mode coordinator", "-mode coordinator needs -landscape"},
		{"-mode demo", "-mode demo needs -landscape"},
		{"-mode standby -standby-of http://x -journal j", "-mode standby needs -landscape"},
		{"-mode standby -landscape l.xml -journal j", "-mode standby needs -standby-of (the acting coordinator's base URL)"},
		{"-mode standby -landscape l.xml -standby-of http://x", "-mode standby needs -journal (the leader's journal directory on shared storage)"},
		{"-mode agent", "-mode agent needs -host"},
		{"-mode bogus", `unknown -mode "bogus" (coordinator, agent, standby or demo)`},
		{"-mode agent -host b1 -load 1.5", "-load 1.5 outside [0, 1]"},
		{"-mode agent -host b1 -interval 0s", "-interval 0s must be positive"},
		{"-mode demo -landscape l.xml -hours 0", "-hours 0 must be positive"},
	} {
		_, err := parse(strings.Fields(tc.args)...)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.args, err, tc.want)
		}
	}
}

func TestFlagSurface(t *testing.T) {
	for _, args := range []string{
		"-mode demo -landscape l.xml",
		"-mode coordinator -landscape l.xml -journal j -archive-dir a -forecast 45 -pprof",
		"-mode agent -host b1 -load 0.95 -interval 300ms",
		"-mode standby -landscape l.xml -standby-of http://x -journal j -lease-ttl 3",
		"-mode demo -landscape l.xml -standbys 2 -chaos-seed 11 -hours 4",
	} {
		if _, err := parse(strings.Fields(args)...); err != nil {
			t.Errorf("%s: rejected: %v", args, err)
		}
	}
	// The width knobs and the codec choice are gone from the command
	// line, not merely ignored.
	for _, gone := range []string{"-ingest-shards", "-dispatch-workers", "-selection-workers", "-codec"} {
		if _, err := parse("-mode", "demo", "-landscape", "l.xml", gone, "4"); err == nil ||
			!strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: error %v, want an undefined-flag error", gone, err)
		}
	}
	var o options
	fs := flag.NewFlagSet("autoglobe-agentd", flag.ContinueOnError)
	o.bind(fs)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 20 {
		t.Errorf("%d flags, want 20", n)
	}
}

// TestCoordinatorAndAgentsOverHTTP runs the real daemon code in one
// process: a coordinator and two agents, each on its own 127.0.0.1:0
// listener, talking over sockets at 10 ms a minute — one agent killed
// and started again under the same host name halfway.
func TestCoordinatorAndAgentsOverHTTP(t *testing.T) {
	dir := t.TempDir()
	l, err := spec.Paper(service.FullMobility, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "paper.xml")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	hosts := []string{l.Servers[0].Name, l.Servers[1].Name}

	// The daemons narrate every minute on stdout; keep the test log clean.
	stdout := os.Stdout
	if os.Stdout, err = os.OpenFile(os.DevNull, os.O_WRONLY, 0); err != nil {
		t.Fatal(err)
	}
	defer func() { os.Stdout.Close(); os.Stdout = stdout }()

	co, err := parse("-mode", "coordinator", "-landscape", path, "-listen", "127.0.0.1:0",
		"-interval", "10ms", "-journal", filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := newCoordinatorDaemon(co)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 2+len(hosts)) // one send per daemon, the restarted agent's included
	go func() { done <- d.run(ctx) }()
	startAgent := func(ctx context.Context, h string) {
		ao, err := parse("-mode", "agent", "-host", h, "-coordinator", d.base,
			"-load", "0.4", "-interval", "10ms")
		if err != nil {
			t.Fatal(err)
		}
		go func() { done <- run(ctx, ao) }()
	}
	firstCtx, stopFirst := context.WithCancel(ctx)
	defer stopFirst()
	startAgent(firstCtx, hosts[0])
	for _, h := range hosts[1:] {
		startAgent(ctx, h)
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(d.base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	series := func(body, name string) float64 {
		m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindStringSubmatch(body)
		if m == nil {
			return 0
		}
		v, _ := strconv.ParseFloat(m[1], 64)
		return v
	}
	live := d.mgr.Plane.Coordinator().Liveness()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body := get(obs.MetricsPath)
		beats := series(body, agent.MetricHeartbeats)
		merged := series(body, agent.MetricMergeEntities+`{class="host"}`)
		closes := series(body, agent.MetricMinuteStage+`_count{stage="merge"}`)
		if beats >= 6 && merged >= 6 && closes >= 3 && live.Tracking(hosts[0]) && live.Tracking(hosts[1]) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after 10 s: %v heartbeats, %v host observations, %v timed closes, tracking %v/%v",
				beats, merged, closes, live.Tracking(hosts[0]), live.Tracking(hosts[1]))
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code, body := get(obs.HealthPath); code != http.StatusOK || !strings.Contains(body, `"minute":"ok"`) {
		t.Errorf("healthz: %d %s, want 200 with a passing minute check", code, body)
	}
	wait := func() {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("daemon returned %v on cancel, want nil", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a daemon did not return within 5 s of cancel")
		}
	}
	closes := func() int {
		_, body := get(obs.MetricsPath)
		return int(series(body, agent.MetricMinuteStage+`_count{stage="merge"}`))
	}

	// The first agent's process restarts and counts its minutes from 0
	// again: its first ack puts it back on the coordinator's minute, and
	// its host is observed past the restart instead of going dark.
	stopFirst()
	wait()
	restart := closes() // the minutes before it are closed
	startAgent(ctx, hosts[0])
	coord := d.mgr.Plane.Coordinator()
	deadline = time.Now().Add(10 * time.Second)
	for !coord.Follows(hosts[0], restart+1, 0) {
		if time.Now().After(deadline) {
			t.Fatalf("after 10 s the restarted agent's beats are not stamped past minute %d", restart)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for until := closes() + 2; closes() < until; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("after 10 s the coordinator has not closed the restarted agent's minute")
		}
	}

	cancel()
	for i := 0; i < 1+len(hosts); i++ {
		wait()
	}
	if s, _ := d.mgr.Archive.Latest(archive.HostEntity(hosts[0])); s.Minute <= restart {
		t.Fatalf("%s is archived up to minute %d, want past the restart at minute %d", hosts[0], s.Minute, restart)
	}
}
