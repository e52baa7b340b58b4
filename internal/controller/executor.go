package controller

import (
	"fmt"

	"autoglobe/internal/service"
	"autoglobe/internal/txn"
)

// RedistributePolicy says what happens to users after an action changes
// the instance set of a service — the key difference between the paper's
// constrained-mobility and full-mobility scenarios.
type RedistributePolicy int

const (
	// StickyUsers keeps users logged in where they are; a new instance
	// only receives users through natural fluctuation (constrained
	// mobility: "the system does not dynamically redistribute the users").
	StickyUsers RedistributePolicy = iota
	// RebalanceUsers spreads a service's users across all its instances,
	// weighted by host performance, after every action (full mobility:
	// "the users are equally redistributed across all instances").
	RebalanceUsers
)

// DeploymentExecutor applies decisions directly to a deployment. Every
// decision executes as a ServiceGlobe transaction: compound actions
// (stop + user redistribution, relocation + rebinding, …) either apply
// completely or are compensated, so a failure never leaves the
// landscape half-administered.
type DeploymentExecutor struct {
	dep    *service.Deployment
	policy RedistributePolicy

	// PostStep, when set, runs as the final transactional step of every
	// decision; its failure rolls the whole action back. Integrations
	// (e.g. pushing a service-IP binding to the binding layer) hook here.
	PostStep func(*Decision) error
}

// NewDeploymentExecutor returns an executor over the deployment.
func NewDeploymentExecutor(dep *service.Deployment, policy RedistributePolicy) *DeploymentExecutor {
	return &DeploymentExecutor{dep: dep, policy: policy}
}

// userState is a snapshot of one instance's sessions for compensation.
type userState struct {
	users    float64
	priority int
}

func (e *DeploymentExecutor) snapshot(svc string) map[string]userState {
	snap := make(map[string]userState)
	for _, inst := range e.dep.InstancesOf(svc) {
		snap[inst.ID] = userState{users: inst.Users, priority: inst.Priority}
	}
	return snap
}

// restore puts every still-running instance's sessions back to the
// snapshot; an instance created after the snapshot returns to zero
// users. Priorities are left alone — the priority actions compensate
// themselves.
func (e *DeploymentExecutor) restore(svc string, snap map[string]userState) error {
	for _, inst := range e.dep.InstancesOf(svc) {
		if st, ok := snap[inst.ID]; ok {
			inst.Users = st.users
		} else {
			inst.Users = 0
		}
	}
	return nil
}

// Execute implements Executor.
func (e *DeploymentExecutor) Execute(d *Decision) error {
	t := &txn.Transaction{}
	snap := e.snapshot(d.Service)

	switch d.Action {
	case service.ActionScaleOut, service.ActionStart:
		var startedID string
		t.Add("start instance",
			func() error {
				inst, err := e.dep.Start(d.Service, d.TargetHost)
				if err != nil {
					return err
				}
				startedID = inst.ID
				return nil
			},
			func() error { return e.dep.Stop(startedID, true) },
		)

	case service.ActionScaleIn:
		inst, ok := e.dep.Instance(d.InstanceID)
		if !ok {
			return fmt.Errorf("controller: scale-in: unknown instance %q", d.InstanceID)
		}
		host, orphaned, prio := inst.Host, inst.Users, inst.Priority
		t.Add("stop instance",
			func() error { return e.dep.Stop(d.InstanceID, false) },
			func() error {
				re, err := e.dep.Start(d.Service, host)
				if err != nil {
					return err
				}
				re.Users, re.Priority = orphaned, prio
				return nil
			},
		)
		t.Add("reconnect users",
			func() error { e.spread(d.Service, orphaned); return nil },
			func() error { return e.restore(d.Service, snap) },
		)

	case service.ActionStop:
		insts := e.dep.InstancesOf(d.Service)
		type stopped struct {
			host string
			st   userState
		}
		var undone []stopped
		t.Add("stop service",
			func() error {
				for _, inst := range insts {
					rec := stopped{host: inst.Host, st: userState{inst.Users, inst.Priority}}
					if err := e.dep.Stop(inst.ID, true); err != nil {
						return err
					}
					undone = append(undone, rec)
				}
				return nil
			},
			func() error {
				for _, rec := range undone {
					re, err := e.dep.Start(d.Service, rec.host)
					if err != nil {
						return err
					}
					re.Users, re.Priority = rec.st.users, rec.st.priority
				}
				return nil
			},
		)

	case service.ActionScaleUp, service.ActionScaleDown, service.ActionMove:
		inst, ok := e.dep.Instance(d.InstanceID)
		if !ok {
			return fmt.Errorf("controller: %s: unknown instance %q", d.Action, d.InstanceID)
		}
		prev := inst.Host
		t.Add("rebind instance",
			func() error { return e.dep.Move(d.InstanceID, d.TargetHost) },
			func() error { return e.dep.Move(d.InstanceID, prev) },
		)

	case service.ActionIncreasePriority, service.ActionReducePriority:
		inst, ok := e.dep.Instance(d.InstanceID)
		if !ok {
			return fmt.Errorf("controller: %s: unknown instance %q", d.Action, d.InstanceID)
		}
		delta := 1
		if d.Action == service.ActionReducePriority {
			delta = -1
		}
		t.Add("adjust priority",
			func() error { inst.Priority += delta; return nil },
			func() error { inst.Priority -= delta; return nil },
		)

	default:
		return fmt.Errorf("controller: unknown action %q", d.Action)
	}

	if e.policy == RebalanceUsers {
		t.Add("rebalance users",
			func() error { e.rebalance(d.Service); return nil },
			func() error { return e.restore(d.Service, snap) },
		)
	}
	if e.PostStep != nil {
		t.Add("post step", func() error { return e.PostStep(d) }, nil)
	}
	return t.Run()
}

// spread distributes orphaned users over the remaining instances,
// proportionally to the performance of the hosts they run on (a logon
// balancer weights targets by capacity; equal spreading would overload
// the weaker blades of a heterogeneous landscape).
func (e *DeploymentExecutor) spread(svc string, users float64) {
	insts := e.dep.InstancesOf(svc)
	if len(insts) == 0 || users == 0 {
		return
	}
	total := e.totalPI(insts)
	for _, inst := range insts {
		inst.Users += users * e.hostPI(inst) / total
	}
}

// rebalance redistributes all users of a service across its instances,
// proportionally to host performance ("the users are equally
// redistributed across all instances" — equal relative to capacity).
func (e *DeploymentExecutor) rebalance(svc string) {
	insts := e.dep.InstancesOf(svc)
	if len(insts) == 0 {
		return
	}
	var users float64
	for _, inst := range insts {
		users += inst.Users
	}
	total := e.totalPI(insts)
	for _, inst := range insts {
		inst.Users = users * e.hostPI(inst) / total
	}
}

func (e *DeploymentExecutor) hostPI(inst *service.Instance) float64 {
	h, ok := e.dep.Cluster().Host(inst.Host)
	if !ok {
		return 1
	}
	return h.PerformanceIndex
}

func (e *DeploymentExecutor) totalPI(insts []*service.Instance) float64 {
	var sum float64
	for _, inst := range insts {
		sum += e.hostPI(inst)
	}
	if sum == 0 {
		return 1
	}
	return sum
}
