// Command autoglobe-agentd runs AutoGlobe's distributed control plane
// as real processes: a coordinator daemon that ingests heartbeats,
// feeds the monitoring pipeline and dispatches the fuzzy controller's
// actions, and per-host agent daemons that join the landscape, report
// load and execute the actions. All traffic is protocol envelopes in
// length-prefixed binary frames over HTTP (see internal/wire).
//
// Usage, one line per mode (README.md walks through journal, archive,
// rules, standby and chaos set-ups; -help explains every flag):
//
//	autoglobe-agentd -mode coordinator -landscape l.xml -listen 127.0.0.1:7700 -journal /var/lib/autoglobe/journal
//	autoglobe-agentd -mode agent -host b1 -coordinator http://127.0.0.1:7700 -load 0.4
//	autoglobe-agentd -mode standby -standby-of http://127.0.0.1:7700 -landscape l.xml -listen 127.0.0.1:7701 -journal /var/lib/autoglobe/journal
//	autoglobe-agentd -mode demo -landscape l.xml -hours 24 [-standbys 2] [-chaos-seed 11]
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"autoglobe/internal/lease"
	"autoglobe/internal/obs"
	"autoglobe/internal/spec"
	"autoglobe/internal/wire"
)

// options is the daemon's whole command line.
type options struct {
	mode, landscape, listen, coordinator, host string
	load                                       float64
	interval                                   time.Duration
	hours, forecastMin, leaseTTL, standbys     int
	chaosSeed                                  uint64
	obsAddr, journalDir, archiveDir, standbyOf string
	rulesDir, shadowDir, shadowLabel           string
	pprof                                      bool
}

// bind declares every flag on fs, storing into o.
func (o *options) bind(fs *flag.FlagSet) {
	fs.StringVar(&o.mode, "mode", "demo", "coordinator, agent, standby or demo")
	fs.StringVar(&o.landscape, "landscape", "", "declarative XML landscape (coordinator and demo modes)")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:7700", "coordinator listen address")
	fs.StringVar(&o.coordinator, "coordinator", "http://127.0.0.1:7700", "coordinator base URL (agent mode)")
	fs.StringVar(&o.host, "host", "", "host name this agent serves (agent mode)")
	fs.Float64Var(&o.load, "load", 0.30, "synthetic CPU load this agent reports (agent mode)")
	fs.DurationVar(&o.interval, "interval", 2*time.Second, "wall-clock duration of one control-plane minute")
	fs.IntVar(&o.hours, "hours", 24, "simulated hours (demo mode)")
	fs.StringVar(&o.obsAddr, "obs", "", "demo mode: keep serving /healthz and /autoglobe/v1/{metrics,traces} on this address after the run (coordinator and agent modes always serve them on their wire listener)")
	fs.StringVar(&o.journalDir, "journal", "", "write-ahead action journal directory (coordinator and demo modes): every action is journaled before dispatch, and a restart recovers in-flight actions under a fresh epoch")
	fs.Uint64Var(&o.chaosSeed, "chaos-seed", 0, "demo mode: inject the deterministic fault schedule derived from this seed — coordinator crashes, duplicated and delayed deliveries, short partitions (0 disables)")
	fs.StringVar(&o.archiveDir, "archive-dir", "", "coordinator/demo modes: back the load archive with the segmented on-disk store in this directory; the full observation history is committed once per minute and replayed on restart")
	fs.IntVar(&o.forecastMin, "forecast", 0, "coordinator/demo modes: proactive-control horizon in minutes — the forecast scan predicts every host's and service's load this far ahead and raises forecast triggers before measured overloads confirm (0 disables)")
	fs.StringVar(&o.rulesDir, "rules-dir", "", "coordinator/demo modes: versioned rule-base directory (<name>@v<N>.rules); every file is validated into the rule registry and the highest version of each base is hot-swapped into the controller before the first minute")
	fs.StringVar(&o.shadowDir, "shadow-rules-dir", "", "coordinator/demo modes: candidate rule-base directory shadow-evaluated beside the active rule set on every live trigger — decisions are diffed and counted in autoglobe_rules_shadow_* metrics, never executed")
	fs.StringVar(&o.shadowLabel, "shadow-label", "candidate", "label the shadow candidate carries in metrics and traces (with -shadow-rules-dir)")
	fs.StringVar(&o.standbyOf, "standby-of", "", "standby mode: base URL of the acting coordinator to watch; when its lease lapses this process promotes itself over the shared -journal directory")
	fs.IntVar(&o.leaseTTL, "lease-ttl", lease.DefaultTTL, "standby/demo modes: leadership lease time-to-live in intervals — a leader silent this long is presumed dead (co-located standbys should stagger this so a deterministic single winner promotes first)")
	fs.IntVar(&o.standbys, "standbys", 0, "demo mode: attach this many hot-standby coordinators and run lease-based leader election (chaos seeds then also kill and partition the leader)")
	fs.BoolVar(&o.pprof, "pprof", false, "expose the runtime profiling surface (net/http/pprof) under /debug/pprof/ on the observability listener")
}

func main() {
	var o options
	o.bind(flag.CommandLine)
	flag.Parse()
	if err := o.validate(); err != nil {
		fatal(err)
	}
	// The one signal context: every mode runs until it is cancelled, and
	// a standby promotes into the coordinator loop under the same one.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		fatal(err)
	}
}

// run dispatches a validated command line to its mode.
func run(ctx context.Context, o options) error {
	switch o.mode {
	case "coordinator":
		return runCoordinator(ctx, o)
	case "agent":
		return runAgent(ctx, o)
	case "standby":
		return runStandby(ctx, o)
	default:
		return runDemo(ctx, o)
	}
}

// obsMux builds a daemon's observability surface: /healthz,
// /autoglobe/v1/metrics, /autoglobe/v1/traces and, with -pprof, the
// runtime profiling surface under /debug/pprof/ (CPU and heap profiles
// of a live daemon, e.g. of server selection under a trigger storm).
func (o options) obsMux(reg *obs.Registry, tracer *obs.Tracer, health *obs.Health) *http.ServeMux {
	mux := obs.Handler(reg, tracer, health)
	if o.pprof {
		// Importing net/http/pprof registers its handlers on the default mux.
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
	}
	return mux
}

// mountObs rides the surface on a wire listener, next to the wire
// endpoint. Must be called before the transport starts listening.
func mountObs(tr *wire.HTTP, mux *http.ServeMux) {
	for _, path := range []string{obs.HealthPath, obs.MetricsPath, obs.TracesPath, "/debug/pprof/"} {
		tr.Mount(path, mux)
	}
}

// validate checks the command line as a whole.
func (o *options) validate() error {
	for _, f := range []struct {
		flag      string
		misplaced bool
		modes     string
	}{
		{"-chaos-seed", o.chaosSeed != 0 && o.mode != "demo", "demo"},
		{"-standby-of", o.standbyOf != "" && o.mode != "standby", "standby"},
		{"-standbys", o.standbys != 0 && o.mode != "demo", "demo"},
		{"-archive-dir", o.archiveDir != "" && o.mode == "agent", "coordinator or demo"},
		{"-rules-dir", o.rulesDir != "" && o.mode == "agent", "coordinator or demo"},
		{"-shadow-rules-dir", o.shadowDir != "" && o.mode == "agent", "coordinator or demo"},
		{"-forecast", o.forecastMin > 0 && o.mode == "agent", "coordinator or demo"},
	} {
		if f.misplaced {
			return fmt.Errorf("%s only applies to -mode %s", f.flag, f.modes)
		}
	}
	if o.standbys < 0 {
		return fmt.Errorf("-standbys %d must be >= 0", o.standbys)
	}
	if o.leaseTTL <= 0 {
		return fmt.Errorf("-lease-ttl %d must be positive", o.leaseTTL)
	}
	if o.forecastMin < 0 {
		return fmt.Errorf("-forecast %d must be >= 0", o.forecastMin)
	}
	switch o.mode {
	case "coordinator", "demo":
		if o.landscape == "" {
			return fmt.Errorf("-mode %s needs -landscape", o.mode)
		}
	case "standby":
		if o.landscape == "" {
			return fmt.Errorf("-mode standby needs -landscape")
		}
		if o.standbyOf == "" {
			return fmt.Errorf("-mode standby needs -standby-of (the acting coordinator's base URL)")
		}
		if o.journalDir == "" {
			return fmt.Errorf("-mode standby needs -journal (the leader's journal directory on shared storage)")
		}
	case "agent":
		if o.host == "" {
			return fmt.Errorf("-mode agent needs -host")
		}
	default:
		return fmt.Errorf("unknown -mode %q (coordinator, agent, standby or demo)", o.mode)
	}
	if o.load < 0 || o.load > 1 {
		return fmt.Errorf("-load %g outside [0, 1]", o.load)
	}
	if o.interval <= 0 {
		return fmt.Errorf("-interval %v must be positive", o.interval)
	}
	if o.mode == "demo" && o.hours <= 0 {
		return fmt.Errorf("-hours %d must be positive", o.hours)
	}
	return nil
}

func loadLandscape(path string) (*spec.Landscape, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return spec.Parse(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "autoglobe-agentd:", err)
	os.Exit(1)
}
