// Package txn implements the transaction system of the ServiceGlobe
// platform (Section 2: "ServiceGlobe offers all the standard
// functionality of a service platform like a transaction system and a
// security system"): atomic execution of multi-step administrative
// operations with compensation.
//
// Controller actions are not single-step: a scale-in stops an instance
// *and* redistributes its users; a move unbinds and rebinds a service
// IP around the relocation. If a later step fails, the earlier steps
// must be compensated, or the landscape is left half-administered. A
// Transaction collects steps (each with a do and an undo function),
// runs them in order, and on failure undoes the completed prefix in
// reverse — the classic saga/compensation pattern.
package txn

import "fmt"

// Step is one unit of work within a transaction.
type Step struct {
	// Name identifies the step in error messages.
	Name string
	// Do performs the step.
	Do func() error
	// Undo compensates a completed Do. It may be nil for steps that
	// need no compensation (e.g. pure reads).
	Undo func() error
}

// Transaction is an ordered list of steps executed atomically (all or
// nothing, via compensation). The zero value is an empty, usable
// transaction.
type Transaction struct {
	steps []Step
}

// Add appends a step and returns the transaction for chaining.
func (t *Transaction) Add(name string, do, undo func() error) *Transaction {
	t.steps = append(t.steps, Step{Name: name, Do: do, Undo: undo})
	return t
}

// RollbackError reports a failed compensation: the landscape may be in
// an inconsistent state and needs administrator attention.
type RollbackError struct {
	// Cause is the step error that triggered the rollback.
	Cause error
	// FailedUndo names the compensation step that failed.
	FailedUndo string
	// UndoErr is the compensation failure.
	UndoErr error
}

func (e *RollbackError) Error() string {
	return fmt.Sprintf("txn: rollback of %q failed: %v (original failure: %v)",
		e.FailedUndo, e.UndoErr, e.Cause)
}

// Unwrap exposes the original cause.
func (e *RollbackError) Unwrap() error { return e.Cause }

// PanicError reports a step function that panicked. Run recovers the
// panic into an ordinary step failure so the transaction's compensation
// guarantee survives buggy step implementations: a panicking Do still
// triggers the reverse rollback of the completed prefix, and a
// panicking Undo still surfaces as a *RollbackError instead of
// unwinding the control loop with half the landscape administered.
type PanicError struct {
	// Step names the panicking step.
	Step string
	// Value is the recovered panic value.
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("txn: step %q panicked: %v", e.Step, e.Value)
}

// protect runs fn, converting a panic into a *PanicError.
func protect(name string, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Step: name, Value: v}
		}
	}()
	return fn()
}

// Run executes the steps in order. On the first failure the completed
// prefix is undone in reverse order and the step's error is returned
// (wrapped with the step name). If a compensation itself fails, a
// *RollbackError is returned instead — the caller must escalate to a
// human. A panic in a Do or Undo is recovered into a *PanicError and
// treated exactly like the corresponding step failure.
func (t *Transaction) Run() error {
	for i, s := range t.steps {
		if s.Do == nil {
			return fmt.Errorf("txn: step %q has no Do", s.Name)
		}
		err := protect(s.Name, s.Do)
		if err == nil {
			continue
		}
		cause := fmt.Errorf("txn: step %q: %w", s.Name, err)
		for j := i - 1; j >= 0; j-- {
			u := t.steps[j]
			if u.Undo == nil {
				continue
			}
			if uerr := protect(u.Name, u.Undo); uerr != nil {
				return &RollbackError{Cause: cause, FailedUndo: u.Name, UndoErr: uerr}
			}
		}
		return cause
	}
	return nil
}
