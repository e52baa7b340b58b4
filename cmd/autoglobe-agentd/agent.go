package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"autoglobe/internal/agent"
	"autoglobe/internal/obs"
	"autoglobe/internal/wire"
)

// runAgent is the per-host daemon: it binds an ephemeral port, joins
// the landscape by hello (announcing its own URL, so only the
// coordinator needs a well-known address), and then reports a heartbeat
// per interval with the configured synthetic load spread over whatever
// instances the coordinator has started here.
func runAgent(ctx context.Context, o options) error {
	host, interval, load := o.host, o.interval, o.load
	tr := wire.NewHTTP()
	tr.Codec = o.codec
	defer tr.Close()
	// The agent serves the same observability surface as the
	// coordinator on its own listener: wire-call metrics plus a health
	// report naming the host (no tracer — traces are controller-side).
	reg := obs.NewRegistry()
	health := obs.NewHealth()
	health.SetInfo("mode", "agent")
	health.SetInfo("host", host)
	tr.Instrument(reg)
	mountObs(tr, o.obsMux(reg, nil, health))
	tr.Register(agent.CoordinatorNode, o.coordinator)
	a, err := agent.NewAgent(host, agent.CoordinatorNode, tr)
	if err != nil {
		return err
	}
	base, _ := tr.Addr(host)
	fmt.Printf("observability: %s%s, %s%s\n", base, obs.HealthPath, base, obs.MetricsPath)

	// Joining retries forever with a capped exponential backoff: an agent
	// started before its coordinator — or re-pointed at a standby that is
	// still promoting — keeps knocking, quickly at first, then settles at
	// the cap instead of hammering a recovering leader.
	hello := wire.Hello{Host: host, Addr: base}
	backoff := interval / 4
	if backoff <= 0 {
		backoff = interval
	}
	maxBackoff := 8 * interval
	for {
		err := a.SendHello(ctx, hello)
		if err == nil {
			break
		}
		fmt.Fprintf(os.Stderr, "hello: %v (retrying in %v)\n", err, backoff)
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
	fmt.Printf("agent %s at %s joined %s, heartbeat every %v\n", host, base, o.coordinator, interval)

	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	rep := a.Reporter()
	// A transiently lost heartbeat is redelivered within the interval
	// (two quick retries), and an outage that outlives the retries parks
	// the minute in the reporter's ring for the next successful send —
	// the coordinator's day profiles stay gap-free across a failover.
	rep.SetRetry(2, interval/16, nil)
	var ids []string
	for minute := 0; ; minute++ {
		select {
		case <-ctx.Done():
			fmt.Println("\nshutting down")
			return nil
		case <-ticker.C:
		}
		// The reporter coalesces the minute's instance samples into one
		// reusable envelope (agent.HeartbeatReporter): the steady-state
		// heartbeat costs no allocations beyond the process-table
		// snapshot.
		rep.Begin(minute, load, 0)
		procs := a.Instances()
		ids = ids[:0]
		for id := range procs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			rep.Sample(id, procs[id], load/float64(len(ids)))
		}
		if err := rep.Send(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "heartbeat %d: %v\n", minute, err)
		}
	}
}
