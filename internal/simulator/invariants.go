package simulator

import "fmt"

// CheckInvariants verifies the landscape safety invariants the chaos
// harness asserts every simulated minute. The paper's pitch is that the
// autonomic controller rides out "failure situations like a program
// crash" without an administrator; these checks define what "rides out"
// means — no fault schedule may ever produce an allocation the
// declarative constraint set forbids, and in distributed mode the
// hosts' process tables must agree with the authoritative model (a
// disagreement is a double-executed or lost action, exactly the bugs
// the journal/idempotency machinery exists to prevent).
//
// Non-strict checks hold at EVERY minute, faults in flight or not:
//
//   - no service above its MaxInstances;
//   - exclusivity respected, at most one instance of a service per
//     host, MinPerfIndex honored, host memory not oversubscribed;
//   - every instance placed on a pooled host;
//   - (distributed) model ⇄ agent process-table agreement, modulo
//     in-model crash injections and ever-demoted hosts, whose agents
//     legitimately keep orphans.
//
// Strict mode additionally requires every service at or above its
// MinInstances — transiently violable mid-recovery (a demoted host's
// instance is down until the controller restarts it elsewhere), so it
// is asserted only at convergence points (end of run, quiet tail).
func (s *Simulator) CheckInvariants(strict bool) error {
	check := s.dep.ValidatePlacement
	if strict {
		check = s.dep.Validate
	}
	if err := check(); err != nil {
		return fmt.Errorf("simulator: invariant: %w", err)
	}
	if s.mgr.Plane != nil {
		return s.checkAgentConsistency()
	}
	return nil
}

// checkAgentConsistency asserts that every pooled host's agent agrees
// with the authoritative model: every model instance is in its agent's
// process table under the right service, and every agent process is in
// the model. Two legitimate divergences are exempted: instances killed
// by in-model crash injection (the agent never hears about a simulated
// process death — the real-world analogue detects it host-locally),
// and hosts that were ever demoted or force-removed (their agents keep
// the orphaned processes of the "dead" blade).
func (s *Simulator) checkAgentConsistency() error {
	for _, hostName := range s.dep.Cluster().Names() {
		if s.everDemoted[hostName] {
			continue
		}
		a, ok := s.mgr.Plane.Agent(hostName)
		if !ok {
			return fmt.Errorf("simulator: invariant: pooled host %q has no agent", hostName)
		}
		procs := a.Instances()
		for _, inst := range s.dep.InstancesOn(hostName) {
			svc, ok := procs[inst.ID]
			if !ok {
				return fmt.Errorf("simulator: invariant: model instance %s on %q missing from its agent's process table (lost action?)",
					inst.ID, hostName)
			}
			if svc != inst.Service {
				return fmt.Errorf("simulator: invariant: instance %s is %q in the model but %q on agent %q",
					inst.ID, inst.Service, svc, hostName)
			}
			delete(procs, inst.ID)
		}
		for id := range procs {
			if s.everCrashed[id] {
				continue
			}
			return fmt.Errorf("simulator: invariant: agent %q runs orphan process %s absent from the model (double-executed action?)",
				hostName, id)
		}
	}
	return nil
}
