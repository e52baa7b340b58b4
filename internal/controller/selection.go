package controller

import (
	"cmp"
	"fmt"
	"slices"
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
	var instances []*service.Instance
	switch tr.Kind {
	case monitor.ServerOverloaded, monitor.ServerIdle, monitor.ServerForecastOverload:
		instances = c.dep.InstancesOn(tr.Entity)
	case monitor.ServiceOverloaded, monitor.ServiceIdle, monitor.ServiceForecastOverload:
		instances = c.dep.InstancesOf(tr.Entity)
	default:
		return nil, fmt.Errorf("controller: unknown trigger kind %q", tr.Kind)
	}

	inferred := 0
	if live && c.metrics != nil { // else nobody reads the clock
		defer c.metrics.inferences(time.Now(), &inferred)
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
		res, err := c.engine.InferVec(rb, vec)
		inferred++
		if err != nil {
			return nil, err
		}
		for o, value := range res.Outputs {
			name := b.outputs[o]
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
	// Deterministic candidate order, pinned as a contract: applicability
	// descending, then the canonical action order (which remedy Figure 6
	// tries first), then (service, instance ID) — the instance identity
	// fully breaks every remaining tie, so the sort is a strict total
	// order over candidates, independent of the order instances and
	// outputs were visited in.
	slices.SortFunc(candidates, func(a, b Candidate) int {
		if c := cmp.Compare(b.Applicability, a.Applicability); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Action, b.Action); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Service, b.Service); c != 0 {
			return c
		}
		return cmp.Compare(a.InstanceID, b.InstanceID)
	})
	return candidates, nil
}

// explain collects the rules asserting the named output variable that
// fired, strongest first; rules of equal truth in the order of their
// texts. It names each rule by its id and the base's rendered text, so
// it allocates the returned list and nothing else.
func explain(rb *fuzzy.RuleBase, fired []float64, output string) []FiredRule {
	asserts := func(i int) bool {
		if fired[i] == 0 {
			return false
		}
		for _, cons := range rb.RuleAt(i).Consequents {
			if cons.Var == output {
				return true
			}
		}
		return false
	}
	n := 0
	for i := 0; i < rb.Len(); i++ {
		if asserts(i) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]FiredRule, 0, n)
	for i := 0; i < rb.Len(); i++ {
		if asserts(i) {
			out = append(out, FiredRule{ID: rb.ID(i), Rule: rb.Text(i), Truth: fired[i]})
		}
	}
	slices.SortFunc(out, func(a, b FiredRule) int {
		if c := cmp.Compare(b.Truth, a.Truth); c != 0 {
			return c
		}
		return cmp.Compare(rb.Rank(a.ID.Index), rb.Rank(b.ID.Index))
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
// meta data. A slot the action path cannot supply — a selection-only
// variable, or a forecast variable on a non-forecast trigger — returns
// the program's missing-measurement error for the first such slot.
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
// or its host cannot be resolved: no host is a candidate then.
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

// candidateRefs appends the hosts on which the action could place the
// service: placeable under the constraints, not in protection mode, and
// with the right performance relation. "Initially, these are all servers
// on which an instance of the service can be started and that are not
// in protection mode." The placement index already bucketed the
// service's feasible hosts by performance index, so this walks only the
// buckets matching the action's relation, in canonical bucket order —
// decision-neutral, because selectHostIn reduces the candidates with a
// total-order comparator.
func (c *Controller) candidateRefs(buf []*placement.HostRef, a service.Action, svcName, instID string, minute int, exclude map[string]bool) []*placement.HostRef {
	rel, srcPI, ok := c.selRel(a, instID)
	if !ok {
		return buf
	}
	return c.pindex.AppendCandidates(buf, svcName, rel, srcPI, minute, exclude)
}

// anyTarget reports whether at least one candidate host exists,
// stopping at the first feasible bucket entry.
func (c *Controller) anyTarget(a service.Action, svcName, instID string, minute int) bool {
	rel, srcPI, ok := c.selRel(a, instID)
	return ok && c.pindex.AnyCandidate(svcName, rel, srcPI, minute, nil)
}

// scoreRef fills the bound input vector with the Table 3 variables of
// one candidate host — current measurements and meta data — and runs
// the server-selection inference, unless the ref's memo holds the score
// of this rule base over these exact inputs. ok is false when the host
// cannot be scored (a slot the selection path cannot supply): the host
// is skipped. The memo is exact: the engine is fixed at New, a rule base
// is immutable (a swap installs a new pointer), and vec carries every
// input the score reads.
func (c *Controller) scoreRef(b *binder, vec []float64, ref *placement.HostRef) (score float64, ok bool) {
	if !ref.Load.Known() { // a host's first sample may follow its first selection
		ref.Load = c.arch.Entity(ref.Entity)
	}
	var cpu, mem float64
	if s, ok := ref.Load.Latest(); ok {
		cpu, mem = s.CPU, s.Mem
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
	if score, hit := ref.Memoised(b.rb, vec); hit {
		return score, true
	}
	res, err := c.engine.InferVec(b.rb, vec)
	if err != nil {
		return 0, false
	}
	if b.score >= 0 {
		score = res.Outputs[b.score]
	}
	res.Release()
	ref.Memoise(b.rb, vec, score)
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
// unique and every enumeration order reduces to the same winner: the
// order in which the placement index's buckets list the candidates is
// decision-neutral.
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
// scoring semantics invisibly (e.g. under a partial rules directory), so
// the miss is counted in autoglobe_rules_fallback_total and annotated on
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
	// Two clock reads a selection, none when nobody reads them (shadow,
	// uninstrumented): every candidate scored counts as one inference,
	// memo hit or not.
	scored := 0
	if live && c.metrics != nil {
		c.metrics.candidates.Observe(float64(len(c.hostBuf)))
		defer c.metrics.inferences(time.Now(), &scored)
	}
	var best hostBest
	for _, ref := range c.hostBuf {
		// Candidates that cannot be scored or rate below MinHostScore
		// are skipped.
		score, ok := c.scoreRef(b, vec, ref)
		if !ok {
			continue
		}
		scored++
		if score >= c.cfg.MinHostScore && better(score, ref, best) {
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
