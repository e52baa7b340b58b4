package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"autoglobe/internal/cluster"
	"autoglobe/internal/service"
	"autoglobe/internal/simulator"
)

// Table4Result holds the initial user populations and instance counts
// (Table 4) together with the Figure 11 capacity cross-check.
type Table4Result struct {
	Rows []Table4Row
}

// Table4Row is one service line of Table 4.
type Table4Row struct {
	Service   string
	Users     float64
	Instances int
	// CapacityUsers is the aggregate capacity (150 users × performance
	// index) of the service's initially allocated hosts.
	CapacityUsers float64
}

// Table4 rebuilds the initial allocation and reports users, instance
// counts and the implied capacity per service.
func Table4() (Table4Result, error) {
	dep, err := service.BuildPaperDeployment(cluster.Paper(), service.Static, 1.0)
	if err != nil {
		return Table4Result{}, err
	}
	users := service.PaperUsers()
	var rows []Table4Row
	for _, name := range []string{"FI", "LES", "PP", "HR", "CRM", "BW"} {
		var capacity float64
		for _, inst := range dep.InstancesOf(name) {
			h, _ := dep.Cluster().Host(inst.Host)
			capacity += 150 * h.PerformanceIndex
		}
		rows = append(rows, Table4Row{
			Service:       name,
			Users:         users[name],
			Instances:     dep.CountOf(name),
			CapacityUsers: capacity,
		})
	}
	return Table4Result{Rows: rows}, nil
}

func (r Table4Result) String() string {
	var sb strings.Builder
	sb.WriteString("Table 4: initial number of users and instances\n")
	fmt.Fprintf(&sb, "  %-8s %8s %10s %15s\n", "service", "users", "instances", "capacity-users")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-8s %8.0f %10d %15.0f\n", row.Service, row.Users, row.Instances, row.CapacityUsers)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// ConstraintsResult summarizes the declarative constraints of Tables 5
// and 6 as encoded by the service catalogs.
type ConstraintsResult struct {
	Scenario service.Mobility
	Lines    []string
}

// Constraints lists each service's conditions and possible actions for
// a scenario (the content of Tables 5 and 6).
func Constraints(m service.Mobility) ConstraintsResult {
	cat := service.PaperCatalog(m)
	var lines []string
	for _, svc := range cat.All() {
		var conds []string
		if svc.Exclusive {
			conds = append(conds, "exclusive")
		}
		if svc.MinPerfIndex > 0 {
			conds = append(conds, fmt.Sprintf("min. perf. index %g", svc.MinPerfIndex))
		}
		if svc.MinInstances > 1 {
			conds = append(conds, fmt.Sprintf("min. %d instances", svc.MinInstances))
		}
		var acts []string
		for _, a := range service.Actions() {
			if svc.Supports(a) {
				acts = append(acts, string(a))
			}
		}
		sort.Strings(acts)
		line := fmt.Sprintf("%-8s conditions: %-40s actions: %s",
			svc.Name, strings.Join(conds, ", "), strings.Join(acts, ", "))
		if len(acts) == 0 {
			line = fmt.Sprintf("%-8s conditions: %-40s actions: – (static)",
				svc.Name, strings.Join(conds, ", "))
		}
		lines = append(lines, line)
	}
	return ConstraintsResult{Scenario: m, Lines: lines}
}

func (r ConstraintsResult) String() string {
	table := "Table 5"
	if r.Scenario == service.FullMobility {
		table = "Table 6"
	}
	return fmt.Sprintf("%s: services in the %s scenario\n  %s",
		table, r.Scenario, strings.Join(r.Lines, "\n  "))
}

// Table7Result holds the headline experiment: the maximum relative user
// population each scenario sustains.
type Table7Result struct {
	// MaxUsers maps each scenario to the highest passing multiplier in
	// percent (paper: static 100 %, constrained mobility 115 %, full
	// mobility 135 %).
	MaxUsers map[service.Mobility]int
	// Detail records every sweep point.
	Detail []Table7Point
}

// Table7Point is one sweep measurement.
type Table7Point struct {
	Scenario    service.Mobility
	Percent     int
	WorstPerDay float64
	MaxStreak   int
	Actions     int
	Overloaded  bool
}

// Table7Options tunes the sweep.
type Table7Options struct {
	Hours    int     // simulated hours per point (default 80)
	Step     int     // sweep step in percent (default 5)
	From, To int     // sweep bounds in percent (default 100..150)
	Budget   float64 // overload minutes/day budget (default simulator.DefaultOverloadBudget)
	Streak   int     // continuous overload budget (default simulator.DefaultStreakBudget)
	Seed     uint64  // noise seed (default 1, the paper-reproduction seed)
}

func (o Table7Options) withDefaults() Table7Options {
	if o.Hours == 0 {
		o.Hours = 80
	}
	if o.Step == 0 {
		o.Step = 5
	}
	if o.From == 0 {
		o.From = 100
	}
	if o.To == 0 {
		o.To = 150
	}
	if o.Budget == 0 {
		o.Budget = simulator.DefaultOverloadBudget
	}
	if o.Streak == 0 {
		o.Streak = simulator.DefaultStreakBudget
	}
	return o
}

// table7Scenarios is the fixed scenario order of the paper's sweep.
var table7Scenarios = []service.Mobility{service.Static, service.ConstrainedMobility, service.FullMobility}

// runTable7Point simulates one (scenario, percent) sweep point. Every
// point builds its own simulator with a run-local RNG, deployment and
// controller, so points are fully independent and the function is safe
// to call from concurrent sweep workers.
func runTable7Point(opts Table7Options, seed uint64, m service.Mobility, pct int) (Table7Point, error) {
	cfg := simulator.PaperConfig(m, float64(pct)/100)
	cfg.Hours = opts.Hours
	if seed != 0 {
		cfg.Seed = seed
	}
	sim, err := simulator.New(cfg)
	if err != nil {
		return Table7Point{}, err
	}
	run, err := sim.Run()
	if err != nil {
		return Table7Point{}, err
	}
	_, worst := run.WorstOverloadPerDay()
	streak := 0
	for _, h := range run.Hosts {
		if run.MaxStreak[h] > streak {
			streak = run.MaxStreak[h]
		}
	}
	return Table7Point{
		Scenario: m, Percent: pct, WorstPerDay: worst,
		MaxStreak: streak, Actions: len(run.ExecutedActions()),
		Overloaded: run.Overloaded(opts.Budget, opts.Streak),
	}, nil
}

// sweepJob is one (seed, scenario, percent) point of a sweep grid.
type sweepJob struct {
	seed     uint64
	scenario service.Mobility
	pct      int
	group    int // (seed, scenario) lane index for early-cutoff pruning
}

// sweepKey addresses a computed point during assembly.
type sweepKey struct {
	seed     uint64
	scenario service.Mobility
	pct      int
}

// runSweepGrid computes the given sweep points across the worker pool.
// Jobs are ordered by ascending percent so the cheap, always-needed low
// points of every lane run first; once a lane's lowest overloaded
// percent is known, its higher points are pruned (they can never appear
// in the assembled detail). The returned map holds every computed
// point.
func runSweepGrid(opts Table7Options, jobs []sweepJob, groups, workers int) (map[sweepKey]Table7Point, error) {
	points := make([]Table7Point, len(jobs))
	computed := make([]bool, len(jobs))
	cuts := newSweepCut(groups)
	err := forEachIndex(workers, len(jobs), func(i int) error {
		j := jobs[i]
		if cuts.skip(j.group, j.pct) {
			return nil
		}
		p, err := runTable7Point(opts, j.seed, j.scenario, j.pct)
		if err != nil {
			return err
		}
		points[i] = p
		computed[i] = true
		if p.Overloaded {
			cuts.overloaded(j.group, j.pct)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[sweepKey]Table7Point, len(jobs))
	for i, j := range jobs {
		if computed[i] {
			out[sweepKey{j.seed, j.scenario, j.pct}] = points[i]
		}
	}
	return out, nil
}

// sweepGridJobs builds the full job grid for the given seeds, ordered by
// ascending percent (then seed, then scenario order) so workers finish
// the low points of every lane before speculating on high ones.
func sweepGridJobs(opts Table7Options, seeds []uint64) ([]sweepJob, int) {
	var jobs []sweepJob
	groups := 0
	group := make(map[sweepKey]int) // keyed with pct 0: one lane per (seed, scenario)
	for pct := opts.From; pct <= opts.To; pct += opts.Step {
		for _, s := range seeds {
			for _, m := range table7Scenarios {
				laneKey := sweepKey{s, m, 0}
				g, ok := group[laneKey]
				if !ok {
					g = groups
					group[laneKey] = g
					groups++
				}
				jobs = append(jobs, sweepJob{seed: s, scenario: m, pct: pct, group: g})
			}
		}
	}
	return jobs, groups
}

// assembleTable7 replays the sequential sweep loop over the computed
// points: percent ascending per scenario, stop after the first
// overloaded point, ceiling = highest passing percent. Pruned points
// are, by construction, beyond the stopping point and never consulted.
func assembleTable7(opts Table7Options, seed uint64, points map[sweepKey]Table7Point) *Table7Result {
	res := &Table7Result{MaxUsers: make(map[service.Mobility]int)}
	for _, m := range table7Scenarios {
		maxOK := 0
		for pct := opts.From; pct <= opts.To; pct += opts.Step {
			p, ok := points[sweepKey{seed, m, pct}]
			if !ok {
				break // pruned: an earlier percent of this lane overloaded
			}
			res.Detail = append(res.Detail, p)
			if p.Overloaded {
				break
			}
			maxOK = pct
		}
		res.MaxUsers[m] = maxOK
	}
	return res
}

// table7Grid runs the sweep grid of the seeds on workers goroutines and
// assembles one Table 7 result per seed, in seed order. With one worker
// the grid is the plain loop, so the result is the sequential sweep's.
func table7Grid(opts Table7Options, seeds []uint64, workers int) ([]*Table7Result, error) {
	jobs, groups := sweepGridJobs(opts, seeds)
	points, err := runSweepGrid(opts, jobs, groups, workers)
	if err != nil {
		return nil, err
	}
	out := make([]*Table7Result, len(seeds))
	for i, s := range seeds {
		out[i] = assembleTable7(opts, s, points)
	}
	return out, nil
}

// Table7 sweeps the user multiplier for all three scenarios, increasing
// the population in 5 % steps "until the system becomes overloaded",
// and reports the maximum each scenario handles. The independent sweep
// points run on one worker per core (GOMAXPROCS bounds it); the result
// is byte-identical to the sequential sweep.
func Table7(opts Table7Options) (*Table7Result, error) {
	opts = opts.withDefaults()
	res, err := table7Grid(opts, []uint64{opts.Seed}, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// StabilityResult holds Table 7 ceilings across noise seeds, the
// robustness check for the headline reproduction.
type StabilityResult struct {
	Seeds    []uint64
	Ceilings map[uint64]map[service.Mobility]int
}

// Table7Stability repeats the Table 7 sweep for several seeds. One
// shared worker pool spans the whole (seed, scenario, percent) grid, so
// the pool stays saturated across seed boundaries; per-seed ceilings are
// byte-identical to sequential ones.
func Table7Stability(seeds []uint64, opts Table7Options) (*StabilityResult, error) {
	res, err := table7Grid(opts.withDefaults(), seeds, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	out := &StabilityResult{Seeds: seeds, Ceilings: make(map[uint64]map[service.Mobility]int)}
	for i, s := range seeds {
		out.Ceilings[s] = res[i].MaxUsers
	}
	return out, nil
}

func (r *StabilityResult) String() string {
	var sb strings.Builder
	sb.WriteString("Table 7 stability across seeds (max relative users)\n")
	fmt.Fprintf(&sb, "  %-6s %-8s %-22s %-14s\n", "seed", "static", "constrained mobility", "full mobility")
	for _, s := range r.Seeds {
		c := r.Ceilings[s]
		fmt.Fprintf(&sb, "  %-6d %3d%%     %3d%%                   %3d%%\n",
			s, c[service.Static], c[service.ConstrainedMobility], c[service.FullMobility])
	}
	return strings.TrimRight(sb.String(), "\n")
}

func (r *Table7Result) String() string {
	var sb strings.Builder
	sb.WriteString("Table 7: maximum possible, relative number of users\n")
	fmt.Fprintf(&sb, "  %-22s %-12s %-12s\n", "scenario", "measured", "paper")
	paper := map[service.Mobility]string{
		service.Static:              "100%",
		service.ConstrainedMobility: "115%",
		service.FullMobility:        "135%",
	}
	for _, m := range []service.Mobility{service.Static, service.ConstrainedMobility, service.FullMobility} {
		fmt.Fprintf(&sb, "  %-22s %3d%%         %s\n", m.String(), r.MaxUsers[m], paper[m])
	}
	sb.WriteString("  sweep detail:\n")
	for _, p := range r.Detail {
		verdict := "ok"
		if p.Overloaded {
			verdict = "OVERLOADED"
		}
		fmt.Fprintf(&sb, "    %-22s %3d%%  worst %6.1f min/day, streak %3d min, %3d actions  %s\n",
			p.Scenario, p.Percent, p.WorstPerDay, p.MaxStreak, p.Actions, verdict)
	}
	return strings.TrimRight(sb.String(), "\n")
}
