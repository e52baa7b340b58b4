package agent

import (
	"context"
	"fmt"

	"autoglobe/internal/controller"
	"autoglobe/internal/service"
	"autoglobe/internal/txn"
	"autoglobe/internal/wire"
)

// OpPair is one host-local operation of a decomposed decision together
// with its compensation.
type OpPair struct {
	// Name labels the step in the transaction and the audit trail.
	Name string
	// Do is the forward operation.
	Do wire.ActionRequest
	// Undo reverses an applied Do during rollback.
	Undo wire.ActionRequest
}

// OpsFor decomposes a controller decision into the ordered per-host
// operations the agents must apply. The decomposition mirrors the
// transactional steps of controller.DeploymentExecutor:
//
//   - scale-out / start: one OpStart on the target host, addressed by
//     the instance ID the model will assign (Deployment.NextID).
//   - scale-in: one OpStop on the instance's host.
//   - stop (whole service): one OpStop per instance — a genuine
//     multi-host compound.
//   - move / scale-up / scale-down: OpUnbind on the source then OpBind
//     on the target — the two-host compound whose partial failure the
//     compensation machinery exists for (the service-IP rebind of the
//     ServiceGlobe substrate).
//   - priority: one OpPriority on the instance's host.
func OpsFor(dep *service.Deployment, d *controller.Decision) ([]OpPair, error) {
	switch d.Action {
	case service.ActionScaleOut, service.ActionStart:
		id := dep.NextID(d.Service)
		return []OpPair{{
			Name: fmt.Sprintf("start %s on %s", id, d.TargetHost),
			Do:   wire.ActionRequest{Op: wire.OpStart, Host: d.TargetHost, Service: d.Service, InstanceID: id},
			Undo: wire.ActionRequest{Op: wire.OpStop, Host: d.TargetHost, Service: d.Service, InstanceID: id},
		}}, nil

	case service.ActionScaleIn:
		inst, ok := dep.Instance(d.InstanceID)
		if !ok {
			return nil, fmt.Errorf("agent: %s: unknown instance %q", d.Action, d.InstanceID)
		}
		return []OpPair{{
			Name: fmt.Sprintf("stop %s on %s", inst.ID, inst.Host),
			Do:   wire.ActionRequest{Op: wire.OpStop, Host: inst.Host, Service: d.Service, InstanceID: inst.ID},
			Undo: wire.ActionRequest{Op: wire.OpStart, Host: inst.Host, Service: d.Service, InstanceID: inst.ID},
		}}, nil

	case service.ActionStop:
		insts := dep.InstancesOf(d.Service)
		ops := make([]OpPair, 0, len(insts))
		for _, inst := range insts {
			ops = append(ops, OpPair{
				Name: fmt.Sprintf("stop %s on %s", inst.ID, inst.Host),
				Do:   wire.ActionRequest{Op: wire.OpStop, Host: inst.Host, Service: d.Service, InstanceID: inst.ID},
				Undo: wire.ActionRequest{Op: wire.OpStart, Host: inst.Host, Service: d.Service, InstanceID: inst.ID},
			})
		}
		return ops, nil

	case service.ActionScaleUp, service.ActionScaleDown, service.ActionMove:
		inst, ok := dep.Instance(d.InstanceID)
		if !ok {
			return nil, fmt.Errorf("agent: %s: unknown instance %q", d.Action, d.InstanceID)
		}
		src := inst.Host
		return []OpPair{
			{
				Name: fmt.Sprintf("unbind %s from %s", inst.ID, src),
				Do:   wire.ActionRequest{Op: wire.OpUnbind, Host: src, Service: d.Service, InstanceID: inst.ID},
				Undo: wire.ActionRequest{Op: wire.OpBind, Host: src, Service: d.Service, InstanceID: inst.ID},
			},
			{
				Name: fmt.Sprintf("bind %s to %s", inst.ID, d.TargetHost),
				Do:   wire.ActionRequest{Op: wire.OpBind, Host: d.TargetHost, Service: d.Service, InstanceID: inst.ID},
				Undo: wire.ActionRequest{Op: wire.OpUnbind, Host: d.TargetHost, Service: d.Service, InstanceID: inst.ID},
			},
		}, nil

	case service.ActionIncreasePriority, service.ActionReducePriority:
		inst, ok := dep.Instance(d.InstanceID)
		if !ok {
			return nil, fmt.Errorf("agent: %s: unknown instance %q", d.Action, d.InstanceID)
		}
		delta := 1
		if d.Action == service.ActionReducePriority {
			delta = -1
		}
		return []OpPair{{
			Name: fmt.Sprintf("priority %+d for %s on %s", delta, inst.ID, inst.Host),
			Do:   wire.ActionRequest{Op: wire.OpPriority, Host: inst.Host, Service: d.Service, InstanceID: inst.ID, Delta: delta},
			Undo: wire.ActionRequest{Op: wire.OpPriority, Host: inst.Host, Service: d.Service, InstanceID: inst.ID, Delta: -delta},
		}}, nil
	}
	return nil, fmt.Errorf("agent: unknown action %q", d.Action)
}

// DispatchExecutor is a controller.Executor that carries every decision
// over the wire before applying it to the authoritative model: the
// decision is decomposed into per-host operations, each dispatched to
// its agent inside a compensating transaction, and only when every host
// has acknowledged is the inner executor run. A failure mid-compound —
// the second host of a move unreachable, an agent rejecting an
// operation — rolls the already-applied hosts back through inverse
// operations, so the landscape is never left half-administered.
//
// The inner executor's errors are returned verbatim: the controller's
// fallback loop (another host, then another action) and its message log
// behave exactly as in the in-process deployment, which is what makes
// the loopback and in-process action logs byte-identical.
type DispatchExecutor struct {
	dep   *service.Deployment
	inner controller.Executor
	disp  *Dispatcher

	// Context bounds every dispatch (default context.Background()).
	Context context.Context
	// Audit, when set, observes every dispatched step and compensation,
	// feeding the transaction audit trail of network side effects.
	Audit func(txn.StepEvent)
}

// NewDispatchExecutor wraps inner so decisions are dispatched through
// the given dispatcher before being applied.
func NewDispatchExecutor(dep *service.Deployment, inner controller.Executor, disp *Dispatcher) *DispatchExecutor {
	return &DispatchExecutor{dep: dep, inner: inner, disp: disp, Context: context.Background()}
}

// Execute implements controller.Executor.
func (e *DispatchExecutor) Execute(d *controller.Decision) error {
	ops, err := OpsFor(e.dep, d)
	if err != nil {
		return err
	}
	// The dispatch phase: one operation at a time inside a compensating
	// transaction, in decomposition order (a move unbinds THEN binds).
	if err := e.runSerial(ops); err != nil {
		return err // dispatch phase failed; applied hosts compensated
	}
	// Every host acknowledged: apply the decision to the model. On
	// failure the hosts are rolled back and the model error surfaces
	// verbatim.
	if err := e.inner.Execute(d); err != nil {
		for i := len(ops) - 1; i >= 0; i-- {
			uerr := e.dispatch(ops[i].Undo, true)
			if e.Audit != nil {
				e.Audit(txn.StepEvent{Step: ops[i].Name, Compensation: true, Err: uerr})
			}
			if uerr != nil {
				return &txn.RollbackError{Cause: err, FailedUndo: ops[i].Name, UndoErr: uerr}
			}
		}
		return err
	}
	return nil
}

// runSerial executes the ops one by one inside a compensating
// transaction: the first failure rolls the completed prefix back.
func (e *DispatchExecutor) runSerial(ops []OpPair) error {
	t := &txn.Transaction{}
	if e.Audit != nil {
		t.Observe(e.Audit)
	}
	for i := range ops {
		p := ops[i]
		t.Add(p.Name,
			func() error { return e.dispatch(p.Do, false) },
			func() error { return e.dispatch(p.Undo, true) },
		)
	}
	return t.Run()
}

// dispatch sends one operation and folds its outcome to an error. The
// compensation flag marks Undo dispatches in metrics and traces.
func (e *DispatchExecutor) dispatch(req wire.ActionRequest, compensation bool) error {
	ctx := e.Context
	if ctx == nil {
		ctx = context.Background()
	}
	_, err := e.disp.do(ctx, req, compensation)
	return err
}
