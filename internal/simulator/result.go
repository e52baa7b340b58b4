package simulator

import (
	"fmt"
	"sort"
	"strings"

	"autoglobe/internal/controller"
	"autoglobe/internal/monitor"
	"autoglobe/internal/service"
	"autoglobe/internal/workload"
)

// OverloadLevel is the CPU load above which a server counts as
// overloaded in the evaluation: "several servers become overloaded,
// i.e., have a CPU load of more than 80% for a long time".
const OverloadLevel = 0.80

// The Table 7 acceptance criterion operationalizes "overloaded for a
// long time": an installation cannot handle its user population when
// any server spends more than DefaultOverloadBudget minutes per day
// above OverloadLevel, or suffers one continuous overload episode
// longer than DefaultStreakBudget minutes (interactive requests pile up
// and "the working schedule is screwed up").
const (
	DefaultOverloadBudget = 75 // minutes per day
	DefaultStreakBudget   = 70 // minutes, continuous
)

// SeriesPoint is one sample of a per-(service, host) load series.
type SeriesPoint struct {
	Minute int
	Load   float64
}

// Result captures everything a simulation run produces.
type Result struct {
	Mobility   service.Mobility
	Multiplier float64
	Minutes    int
	Hosts      []string

	// HostLoad holds the per-minute CPU load of every host (clamped to
	// 1, as a real CPU meter would report).
	HostLoad map[string][]float64
	// AvgLoad is the per-minute average over all hosts — the thick line
	// of Figures 12–14.
	AvgLoad []float64
	// ServiceHostSeries holds, for each recorded service, the per-host
	// load series keyed "SVC@Host" — the curves of Figures 15–17.
	ServiceHostSeries map[string][]SeriesPoint
	// OverloadMinutes counts, per host, minutes with raw demand above
	// OverloadLevel.
	OverloadMinutes map[string]int
	// MaxStreak is the longest consecutive overload episode per host.
	MaxStreak map[string]int
	// TriggerCount tallies confirmed monitoring triggers by kind.
	TriggerCount map[monitor.TriggerKind]int
	// Actions is the controller's event log (executed actions, alerts).
	Actions []controller.Event
	// Restarts counts self-healing restarts after injected failures;
	// FailedRestarts counts crashes the restart could not remedy.
	Restarts       int
	FailedRestarts int
	// DemotedHosts counts hosts the liveness detector confirmed dead
	// and removed from the pool (distributed mode); RepooledHosts
	// counts demoted hosts re-admitted after a healed partition.
	DemotedHosts  int
	RepooledHosts int
	// ProactiveTriggers counts controller invocations raised by the
	// forecast extension ahead of a confirmed overload.
	ProactiveTriggers int
	// UserMinutes accumulates, per service, the active user-minutes
	// served; DegradedUserMinutes the share served from hosts above
	// OverloadLevel. Their ratio is the user-experienced degradation —
	// the quantity service level agreements are written against.
	UserMinutes         map[string]float64
	DegradedUserMinutes map[string]float64
}

// newResult starts a run's result. The per-host and per-service maps
// are made when the simulator folds its slots into them (result).
func newResult(cfg Config, hosts []string) *Result {
	return &Result{
		Mobility:          cfg.Mobility,
		Multiplier:        cfg.Multiplier,
		Hosts:             hosts,
		ServiceHostSeries: make(map[string][]SeriesPoint),
		TriggerCount:      make(map[monitor.TriggerKind]int),
	}
}

// Days returns the simulated duration in days.
func (r *Result) Days() float64 { return float64(r.Minutes) / float64(workload.MinutesPerDay) }

// WorstOverloadPerDay returns the highest per-host overload-minutes per
// day, and that host's name.
func (r *Result) WorstOverloadPerDay() (host string, minutesPerDay float64) {
	days := r.Days()
	if days == 0 {
		return "", 0
	}
	for _, h := range r.Hosts {
		if v := float64(r.OverloadMinutes[h]) / days; v > minutesPerDay || host == "" {
			if v > minutesPerDay {
				host, minutesPerDay = h, v
			} else if host == "" {
				host = h
			}
		}
	}
	return host, minutesPerDay
}

// TotalOverloadPerDay returns the summed overload minutes per day across
// all hosts.
func (r *Result) TotalOverloadPerDay() float64 {
	days := r.Days()
	if days == 0 {
		return 0
	}
	total := 0
	for _, h := range r.Hosts {
		total += r.OverloadMinutes[h]
	}
	return float64(total) / days
}

// Overloaded applies the Table 7 acceptance criterion: the installation
// cannot handle the load when any server is overloaded "for a long time"
// — operationalized as a host exceeding budgetPerDay minutes of >80 %
// CPU per simulated day, or any single overload episode longer than
// streakBudget minutes (a screwed-up working schedule).
func (r *Result) Overloaded(budgetPerDay float64, streakBudget int) bool {
	_, worst := r.WorstOverloadPerDay()
	if worst > budgetPerDay {
		return true
	}
	for _, h := range r.Hosts {
		if r.MaxStreak[h] > streakBudget {
			return true
		}
	}
	return false
}

// ExecutedActions returns only the executed controller actions.
func (r *Result) ExecutedActions() []controller.Event {
	var out []controller.Event
	for _, e := range r.Actions {
		if e.Executed {
			out = append(out, e)
		}
	}
	return out
}

// ActionCounts tallies executed actions by kind.
func (r *Result) ActionCounts() map[service.Action]int {
	out := make(map[service.Action]int)
	for _, e := range r.ExecutedActions() {
		out[e.Decision.Action]++
	}
	return out
}

// Alerts counts administrator alerts (no applicable action found).
func (r *Result) Alerts() int {
	n := 0
	for _, e := range r.Actions {
		if e.Decision == nil && strings.HasPrefix(e.Note, "ALERT") {
			n++
		}
	}
	return n
}

// DegradedFraction returns the fraction of a service's active
// user-minutes served from overloaded hosts.
func (r *Result) DegradedFraction(svc string) float64 {
	total := r.UserMinutes[svc]
	if total == 0 {
		return 0
	}
	return r.DegradedUserMinutes[svc] / total
}

// MeanLoad returns the time-average of the all-host average load.
func (r *Result) MeanLoad() float64 {
	if len(r.AvgLoad) == 0 {
		return 0
	}
	var sum float64
	for _, v := range r.AvgLoad {
		sum += v
	}
	return sum / float64(len(r.AvgLoad))
}

// HostSummary is one row of the per-host load table.
type HostSummary struct {
	Host            string
	Mean, Max       float64
	OverloadMinutes int
	MaxStreak       int
}

// Summaries returns per-host load statistics in cluster order.
func (r *Result) Summaries() []HostSummary {
	out := make([]HostSummary, 0, len(r.Hosts))
	for _, h := range r.Hosts {
		series := r.HostLoad[h]
		var sum, max float64
		for _, v := range series {
			sum += v
			if v > max {
				max = v
			}
		}
		mean := 0.0
		if len(series) > 0 {
			mean = sum / float64(len(series))
		}
		out = append(out, HostSummary{
			Host: h, Mean: mean, Max: max,
			OverloadMinutes: r.OverloadMinutes[h],
			MaxStreak:       r.MaxStreak[h],
		})
	}
	return out
}

// String renders a compact run summary.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s scenario, %.0f%% users, %.1f days: mean load %.1f%%, ",
		r.Mobility, r.Multiplier*100, r.Days(), r.MeanLoad()*100)
	host, worst := r.WorstOverloadPerDay()
	fmt.Fprintf(&sb, "worst host %s with %.0f overload min/day", host, worst)
	if n := len(r.ExecutedActions()); n > 0 {
		fmt.Fprintf(&sb, ", %d controller actions", n)
	}
	return sb.String()
}

// SeriesKeys returns the recorded service-host series keys, sorted.
func (r *Result) SeriesKeys() []string {
	out := make([]string, 0, len(r.ServiceHostSeries))
	for k := range r.ServiceHostSeries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
