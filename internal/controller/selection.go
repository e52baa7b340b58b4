package controller

import (
	"fmt"
	"sort"
	"time"

	"autoglobe/internal/archive"
	"autoglobe/internal/fuzzy"
	"autoglobe/internal/monitor"
	"autoglobe/internal/placement"
	"autoglobe/internal/service"
)

// SelectActions runs the action-selection fuzzy controller for a trigger
// and returns the ordered, constraint-verified candidate list (Figure 7):
// for service triggers it evaluates every instance of the service; for
// server triggers it evaluates every service running on the host and
// collects the possible actions of all of them. Candidates below the
// applicability threshold or violating a constraint are discarded; the
// rest are sorted by applicability in descending order.
func (c *Controller) SelectActions(tr monitor.Trigger) ([]Candidate, error) {
	return c.selectActionsIn(c.ruleset(), tr, true)
}

// selectActionsIn is SelectActions over an explicit rule set. live
// distinguishes the active path from a shadow evaluation: shadow runs
// skip the inference-latency histogram so candidate rule bases never
// skew the controller's steady-state metrics.
func (c *Controller) selectActionsIn(rs *ruleSet, tr monitor.Trigger, live bool) ([]Candidate, error) {
	timed := live && c.metrics != nil // else nobody reads the clock
	var instances []*service.Instance
	switch tr.Kind {
	case monitor.ServerOverloaded, monitor.ServerIdle, monitor.ServerForecastOverload:
		instances = c.dep.InstancesOn(tr.Entity)
	case monitor.ServiceOverloaded, monitor.ServiceIdle, monitor.ServiceForecastOverload:
		instances = c.dep.InstancesOf(tr.Entity)
	default:
		return nil, fmt.Errorf("controller: unknown trigger kind %q", tr.Kind)
	}

	var candidates []Candidate
	for _, inst := range instances {
		if c.ServiceProtected(inst.Service, tr.Minute) {
			continue
		}
		rb := rs.ruleBase(inst.Service, tr.Kind)
		if rb == nil {
			continue
		}
		svc, ok := c.dep.Catalog().Get(inst.Service)
		if !ok {
			// A zero-value Service supports no action, so proceeding here
			// would silently filter every candidate — fail loudly instead,
			// like the unknown-host path in fillActionVec.
			return nil, fmt.Errorf("controller: instance %q of unknown service %q", inst.ID, inst.Service)
		}
		b := binderFor(rb)
		vec := c.vecFor(&c.actVec, len(b.slots))
		if err := c.fillActionVec(b, vec, tr, inst); err != nil {
			return nil, err
		}
		var mark time.Time
		if timed {
			mark = time.Now()
		}
		res, err := c.engine.InferVec(rb, vec)
		if timed {
			c.metrics.inferred(&mark)
		}
		if err != nil {
			return nil, err
		}
		for name, value := range res.Outputs {
			a := service.Action(name)
			if value < c.cfg.MinApplicability {
				continue
			}
			// "The fuzzy controller only considers actions that do not
			// violate any given constraint."
			if !svc.Supports(a) {
				continue
			}
			if !c.feasible(a, inst.Service, inst.ID, tr.Minute) {
				continue
			}
			candidates = append(candidates, Candidate{
				Action:        a,
				Service:       inst.Service,
				InstanceID:    inst.ID,
				Applicability: value,
				Explanation:   explain(rb, res.Fired, name),
			})
		}
		res.Release()
	}
	// Deterministic candidate order, pinned as a contract so parallel
	// scoring can never reorder ties: applicability descending, then
	// the canonical action order (which remedy Figure 6 tries first),
	// then (service, instance ID) — the instance identity fully breaks
	// every remaining tie, so the sort is a strict total order over
	// candidates and independent of evaluation timing.
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].Applicability != candidates[j].Applicability {
			return candidates[i].Applicability > candidates[j].Applicability
		}
		if candidates[i].Action != candidates[j].Action {
			return candidates[i].Action < candidates[j].Action
		}
		if candidates[i].Service != candidates[j].Service {
			return candidates[i].Service < candidates[j].Service
		}
		return candidates[i].InstanceID < candidates[j].InstanceID
	})
	return candidates, nil
}

// explain collects the rules asserting the named output variable that
// fired, strongest first.
func explain(rb *fuzzy.RuleBase, fired []float64, output string) []FiredRule {
	var out []FiredRule
	for i := 0; i < rb.Len(); i++ {
		if fired[i] == 0 {
			continue
		}
		r := rb.RuleAt(i)
		for _, cons := range r.Consequents {
			if cons.Var == output {
				out = append(out, FiredRule{Rule: r.String(), Truth: fired[i]})
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Truth != out[j].Truth {
			return out[i].Truth > out[j].Truth
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// avg returns the watch-window average CPU load of an archive entity,
// falling back to the latest sample and then to 0 — "all variables of
// the fuzzy controller regarding CPU or memory load are set to the
// arithmetic means of the load values during the service specific
// watchTime". A window the archive cannot read is an error, not a
// reason to decide on the fallback.
func (c *Controller) avg(entity string, from, to int) (float64, error) {
	if v, ok, err := c.arch.AverageCPU(entity, from, to); ok || err != nil {
		return v, err
	}
	s, _ := c.arch.Latest(entity)
	return s.CPU, nil
}

func (c *Controller) avgMem(entity string, from, to int) (float64, error) {
	if v, ok, err := c.arch.AverageMem(entity, from, to); ok || err != nil {
		return v, err
	}
	s, _ := c.arch.Latest(entity)
	return s.Mem, nil
}

// fillActionVec initializes the Table 1 input variables for one
// instance into the rule base's bound input vector: load variables from
// watch-window archive averages, the rest from current measurements and
// meta data. Slots the action path cannot supply — selection-only
// variables, or forecast variables on a non-forecast trigger — produce
// exactly the missing-measurement error the map-based Infer path
// reported, detected in the same slot order.
func (c *Controller) fillActionVec(b *binder, vec []float64, tr monitor.Trigger, inst *service.Instance) error {
	h, ok := c.dep.Cluster().Host(inst.Host)
	if !ok {
		return fmt.Errorf("controller: instance %q on unknown host %q", inst.ID, inst.Host)
	}
	from, to := tr.WatchedFrom, tr.Minute
	forecast := tr.Kind.Forecast()
	for i, slot := range b.slots {
		var err error
		switch slot {
		case bindCPULoad:
			vec[i], err = c.avg(archive.HostEntity(h.Name), from, to)
		case bindMemLoad:
			vec[i], err = c.avgMem(archive.HostEntity(h.Name), from, to)
		case bindPerformanceIndex:
			vec[i] = h.PerformanceIndex
		case bindInstanceLoad:
			vec[i], err = c.avg(archive.InstanceEntity(inst.ID), from, to)
		case bindServiceLoad:
			vec[i], err = c.avg(archive.ServiceEntity(inst.Service), from, to)
		case bindInstancesOnServer:
			vec[i] = float64(c.dep.CountOn(h.Name))
		case bindInstancesOfService:
			vec[i] = float64(c.dep.CountOf(inst.Service))
		case bindForecastLoad:
			// Forecast triggers carry the predicted peak and its evidence;
			// only the forecast rule bases reference these variables.
			if !forecast {
				return b.prog.MissingInputError(i)
			}
			vec[i] = tr.AvgLoad
		case bindForecastConfidence:
			if !forecast {
				return b.prog.MissingInputError(i)
			}
			vec[i] = tr.Confidence
		default:
			return b.prog.MissingInputError(i)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// feasible verifies a candidate action against the declarative
// constraints and the current allocation. It is called both before
// sorting and "once more" before execution, because the controller
// handles several exceptional situations concurrently.
func (c *Controller) feasible(a service.Action, svcName, instID string, minute int) bool {
	svc, ok := c.dep.Catalog().Get(svcName)
	if !ok || !svc.Supports(a) {
		return false
	}
	inst, haveInst := c.dep.Instance(instID)
	switch a {
	case service.ActionScaleIn:
		return haveInst && c.dep.CountOf(svcName) > svc.MinInstances
	case service.ActionScaleOut:
		if svc.MaxInstances > 0 && c.dep.CountOf(svcName) >= svc.MaxInstances {
			return false
		}
		return c.anyTarget(a, svcName, instID, minute)
	case service.ActionScaleUp, service.ActionScaleDown, service.ActionMove:
		return haveInst && c.anyTarget(a, svcName, instID, minute)
	case service.ActionStop:
		return svc.MinInstances == 0 && c.dep.CountOf(svcName) > 0
	case service.ActionStart:
		if svc.MaxInstances > 0 && c.dep.CountOf(svcName) >= svc.MaxInstances {
			return false
		}
		return c.anyTarget(a, svcName, instID, minute)
	case service.ActionIncreasePriority:
		return haveInst && inst.Priority < 2
	case service.ActionReducePriority:
		return haveInst && inst.Priority > -2
	}
	return false
}

// selRel maps an action to the performance-index relation its target
// must satisfy relative to the instance's current host (scale-up: a
// strictly more powerful host, scale-down a strictly less powerful one,
// move an equivalently powerful one; placement actions accept any
// level). ok is false for actions without a target or when the instance
// or its host cannot be resolved — no candidates exist then, matching
// the per-host targetAllowed verdict of the full scan.
func (c *Controller) selRel(a service.Action, instID string) (rel placement.Rel, srcPI float64, ok bool) {
	switch a {
	case service.ActionScaleOut, service.ActionStart:
		return placement.RelAny, 0, true
	case service.ActionScaleUp, service.ActionScaleDown, service.ActionMove:
	default:
		return 0, 0, false
	}
	inst, found := c.dep.Instance(instID)
	if !found {
		return 0, 0, false
	}
	src, found := c.dep.Cluster().Host(inst.Host)
	if !found {
		return 0, 0, false
	}
	switch a {
	case service.ActionScaleUp:
		return placement.RelAbove, src.PerformanceIndex, true
	case service.ActionScaleDown:
		return placement.RelBelow, src.PerformanceIndex, true
	}
	return placement.RelEqual, src.PerformanceIndex, true
}

// targetAllowed checks the performance-index relation between the
// instance's current host and a candidate target — the per-host filter
// of the full-scan reference path (the indexed path resolves the
// relation once via selRel and walks matching PI buckets instead).
func (c *Controller) targetAllowed(a service.Action, instID, target string) bool {
	switch a {
	case service.ActionScaleOut, service.ActionStart:
		return true
	}
	inst, ok := c.dep.Instance(instID)
	if !ok {
		return false
	}
	src, ok := c.dep.Cluster().Host(inst.Host)
	if !ok {
		return false
	}
	dst, ok := c.dep.Cluster().Host(target)
	if !ok {
		return false
	}
	switch a {
	case service.ActionScaleUp:
		return dst.PerformanceIndex > src.PerformanceIndex
	case service.ActionScaleDown:
		return dst.PerformanceIndex < src.PerformanceIndex
	case service.ActionMove:
		return dst.PerformanceIndex == src.PerformanceIndex
	}
	return false
}

// candidateRefs appends the hosts on which the action could place the
// service: placeable under the constraints, not in protection mode, and
// with the right performance relation. "Initially, these are all servers
// on which an instance of the service can be started and that are not
// in protection mode."
//
// With the placement index (the default) this is O(candidates): the
// index already bucketed the feasible hosts of the service by
// performance index, so enumeration walks only the buckets matching the
// action's relation. The full-scan reference path — kept selectable via
// Config.DisablePlacementIndex for parity tests and benchmarks —
// re-scans the entire cluster and re-runs CanPlace per host. Both paths
// produce the same candidate SET; the index enumerates in canonical
// bucket order rather than raw cluster order, which is decision-neutral
// because every consumer reduces candidates with a total-order
// comparator.
func (c *Controller) candidateRefs(buf []*placement.HostRef, a service.Action, svcName, instID string, minute int, exclude map[string]bool) []*placement.HostRef {
	if c.pindex != nil {
		rel, srcPI, ok := c.selRel(a, instID)
		if !ok {
			return buf
		}
		return c.pindex.AppendCandidates(buf, svcName, rel, srcPI, minute, exclude)
	}
	for _, name := range c.dep.Cluster().Names() {
		if exclude[name] || c.HostProtected(name, minute) {
			continue
		}
		if !c.targetAllowed(a, instID, name) {
			continue
		}
		if err := c.dep.CanPlace(svcName, name); err != nil {
			continue
		}
		h, _ := c.dep.Cluster().Host(name)
		buf = append(buf, &placement.HostRef{Host: h, Entity: archive.HostEntity(name)})
	}
	return buf
}

// anyTarget reports whether at least one candidate host exists. The
// indexed probe short-circuits on the first feasible bucket entry.
func (c *Controller) anyTarget(a service.Action, svcName, instID string, minute int) bool {
	if c.pindex != nil {
		rel, srcPI, ok := c.selRel(a, instID)
		if !ok {
			return false
		}
		return c.pindex.AnyCandidate(svcName, rel, srcPI, minute, nil)
	}
	return len(c.candidateRefs(nil, a, svcName, instID, minute, nil)) > 0
}

// scoreRef fills the bound input vector with the Table 3 variables of
// one candidate host — current measurements and meta data, with
// capacity reserved for mission-critical tasks counted as CPU load —
// and runs the server-selection inference. ok is false when the host
// cannot be scored (a slot the selection path cannot supply), which
// skips the host exactly like the map path's missing-measurement error
// did. A non-nil mark times the inference (see selectHostIn).
func (c *Controller) scoreRef(b *binder, vec []float64, ref *placement.HostRef, minute int, mark *time.Time) (score float64, ok bool) {
	var cpu, mem float64
	if s, ok := c.arch.Latest(ref.Entity); ok {
		cpu, mem = s.CPU, s.Mem
	}
	if c.cfg.Reservations != nil {
		cpu += c.cfg.Reservations.ReservedOn(ref.Host.Name, minute)
		if cpu > 1 {
			cpu = 1
		}
	}
	h := &ref.Host
	for i, slot := range b.slots {
		switch slot {
		case bindCPULoad:
			vec[i] = cpu
		case bindMemLoad:
			vec[i] = mem
		case bindInstancesOnServer:
			vec[i] = float64(c.dep.CountOn(h.Name))
		case bindPerformanceIndex:
			vec[i] = h.PerformanceIndex
		case bindNumberOfCpus:
			vec[i] = float64(h.CPUs)
		case bindCPUClock:
			vec[i] = float64(h.ClockMHz)
		case bindCPUCache:
			vec[i] = float64(h.CacheKB)
		case bindMemory:
			vec[i] = float64(h.MemoryMB)
		case bindSwapSpace:
			vec[i] = float64(h.SwapMB)
		case bindTempSpace:
			vec[i] = float64(h.TempMB)
		default:
			return 0, false
		}
	}
	res, err := c.engine.InferVec(b.rb, vec)
	if mark != nil {
		c.metrics.inferred(mark)
	}
	if err != nil {
		return 0, false
	}
	score = res.Outputs[VarScore]
	res.Release()
	return score, true
}

// hostBest is one scored candidate — the unit of the argmax reduction.
type hostBest struct {
	ref   *placement.HostRef
	score float64
}

// better reports whether (score, ref) beats the current best under the
// selection comparator: higher score, then higher performance index,
// then lexicographically smaller host name. The comparator is a strict
// total order over candidates (host names are unique), so the argmax is
// unique and every scan order reduces to the same winner: the order in
// which the placement index's buckets (or the full scan) enumerate the
// candidates is decision-neutral.
func better(score float64, ref *placement.HostRef, cur hostBest) bool {
	if cur.ref == nil {
		return true
	}
	if score != cur.score {
		return score > cur.score
	}
	if ref.Host.PerformanceIndex != cur.ref.Host.PerformanceIndex {
		return ref.Host.PerformanceIndex > cur.ref.Host.PerformanceIndex
	}
	return ref.Host.Name < cur.ref.Host.Name
}

// selectHost runs the server-selection fuzzy controller over all
// candidate hosts and returns the most applicable one (its score as
// second result), or "" when no host reaches the score threshold.
func (c *Controller) selectHost(a service.Action, svcName, instID string, minute int, exclude map[string]bool) (string, float64) {
	return c.selectHostIn(c.ruleset(), a, svcName, instID, minute, exclude, true)
}

// SelectHost is the exported selection entry point for benchmarks and
// operational probes: the same candidate enumeration, scoring and
// argmax reduction HandleTrigger uses, without executing anything.
func (c *Controller) SelectHost(a service.Action, svcName, instID string, minute int) (string, float64) {
	return c.selectHost(a, svcName, instID, minute, nil)
}

// selectHostIn is selectHost over an explicit rule set (live as in
// selectActionsIn). A start action with no base of its own uses the
// scale-out placement base — both place a fresh instance, so sharing is
// deliberate and documented. Any other action with no registered base
// selects no host: silently borrowing the placement base would change
// scoring semantics invisibly (e.g. after a partial rule push), so the
// miss is counted in autoglobe_rules_fallback_total and annotated on
// the open trace instead.
func (c *Controller) selectHostIn(rs *ruleSet, a service.Action, svcName, instID string, minute int, exclude map[string]bool, live bool) (string, float64) {
	rb, ok := rs.selection[a]
	if !ok {
		if a == service.ActionStart {
			rb = rs.selection[service.ActionScaleOut] // placement covers start
		} else if live {
			c.metrics.ruleFallback(a)
			c.tracer.Annotate(fmt.Sprintf("no selection rule base for %s: no host selected", a))
		}
	}
	if rb == nil {
		return "", 0
	}
	b := binderFor(rb)
	c.hostBuf = c.candidateRefs(c.hostBuf[:0], a, svcName, instID, minute, exclude)
	vec := c.vecFor(&c.selVec, len(b.slots))
	// One clock read a candidate: the end of one inference is the start
	// of the next. None when nobody reads it (shadow, uninstrumented).
	var mark *time.Time
	if live && c.metrics != nil {
		now := time.Now()
		mark = &now
		c.metrics.candidates.Observe(float64(len(c.hostBuf)))
	}
	var best hostBest
	for _, ref := range c.hostBuf {
		// Candidates that cannot be scored or rate below MinHostScore
		// are skipped.
		score, ok := c.scoreRef(b, vec, ref, minute, mark)
		if ok && score >= c.cfg.MinHostScore && better(score, ref, best) {
			best = hostBest{ref: ref, score: score}
		}
	}
	if best.ref == nil {
		return "", 0
	}
	return best.ref.Host.Name, best.score
}

// resolve turns a candidate into an executable decision by selecting a
// target host where required. It returns nil when no suitable host
// exists ("Another Action?" in Figure 6).
func (c *Controller) resolve(tr monitor.Trigger, cand Candidate) (*Decision, error) {
	return c.resolveIn(c.ruleset(), tr, cand, true)
}

// resolveIn is resolve over an explicit rule set (live as in
// selectActionsIn).
func (c *Controller) resolveIn(rs *ruleSet, tr monitor.Trigger, cand Candidate, live bool) (*Decision, error) {
	d := &Decision{
		Trigger:       tr,
		Action:        cand.Action,
		Service:       cand.Service,
		InstanceID:    cand.InstanceID,
		Applicability: cand.Applicability,
		Explanation:   cand.Explanation,
	}
	if inst, ok := c.dep.Instance(cand.InstanceID); ok {
		d.SourceHost = inst.Host
	}
	if !cand.Action.NeedsTarget() {
		return d, nil
	}
	host, score := c.selectHostIn(rs, cand.Action, cand.Service, cand.InstanceID, tr.Minute, nil, live)
	if host == "" {
		return nil, nil
	}
	d.TargetHost, d.HostScore = host, score
	return d, nil
}
