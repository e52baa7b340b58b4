package txn

import (
	"errors"
	"strings"
	"testing"
)

// errAborted is a deliberate step failure.
var errAborted = errors.New("txn: aborted")

func TestRunAllSucceed(t *testing.T) {
	var log []string
	tr := (&Transaction{}).
		Add("a", func() error { log = append(log, "a"); return nil }, func() error { log = append(log, "undo-a"); return nil }).
		Add("b", func() error { log = append(log, "b"); return nil }, nil)
	if err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(log, ",") != "a,b" {
		t.Errorf("log = %v", log)
	}
}

func TestRunCompensatesInReverse(t *testing.T) {
	var log []string
	boom := errors.New("boom")
	tr := (&Transaction{}).
		Add("a", func() error { log = append(log, "a"); return nil }, func() error { log = append(log, "undo-a"); return nil }).
		Add("b", func() error { log = append(log, "b"); return nil }, func() error { log = append(log, "undo-b"); return nil }).
		Add("c", func() error { return boom }, func() error { t.Error("undo of failed step must not run"); return nil })
	err := tr.Run()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), `"c"`) {
		t.Errorf("error does not name the failing step: %v", err)
	}
	if strings.Join(log, ",") != "a,b,undo-b,undo-a" {
		t.Errorf("log = %v, want reverse compensation order", log)
	}
}

func TestNilUndoSkipped(t *testing.T) {
	ran := false
	tr := (&Transaction{}).
		Add("a", func() error { return nil }, nil).
		Add("b", func() error { ran = true; return errors.New("fail") }, nil)
	if err := tr.Run(); err == nil {
		t.Fatal("expected failure")
	}
	if !ran {
		t.Fatal("step b never ran")
	}
}

func TestRollbackFailureEscalates(t *testing.T) {
	cause := errors.New("step failed")
	undoErr := errors.New("undo failed")
	tr := (&Transaction{}).
		Add("a", func() error { return nil }, func() error { return undoErr }).
		Add("b", func() error { return cause }, nil)
	err := tr.Run()
	var re *RollbackError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T %v, want *RollbackError", err, err)
	}
	if re.FailedUndo != "a" || !errors.Is(re, cause) {
		t.Errorf("rollback error = %+v", re)
	}
	if !strings.Contains(re.Error(), "undo failed") {
		t.Errorf("Error() = %q", re.Error())
	}
}

func TestMissingDoRejected(t *testing.T) {
	tr := (&Transaction{}).Add("bad", nil, nil)
	if err := tr.Run(); err == nil {
		t.Fatal("nil Do accepted")
	}
}

// TestRunResetsCompleted: every Run starts from an empty completed
// prefix — a rerun executes each step again, and a failure in the rerun
// compensates only what that run completed.
func TestRunResetsCompleted(t *testing.T) {
	var log []string
	fail := true
	tr := (&Transaction{}).
		Add("a", func() error { log = append(log, "a"); return nil }, func() error { log = append(log, "undo-a"); return nil }).
		Add("b", func() error {
			if fail {
				return errors.New("b failed")
			}
			log = append(log, "b")
			return nil
		}, nil)
	if err := tr.Run(); err == nil {
		t.Fatal("first run succeeded despite b failing")
	}
	fail = false
	if err := tr.Run(); err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if got := strings.Join(log, ","); got != "a,undo-a,a,b" {
		t.Errorf("log = %s, want a,undo-a,a,b", got)
	}
}

// TestPanicInDoCompensates: a Do that panics is recovered into a step
// failure and the completed prefix is still rolled back in reverse —
// the compensation guarantee survives buggy step code.
func TestPanicInDoCompensates(t *testing.T) {
	var undone []string
	tr := (&Transaction{}).
		Add("a", func() error { return nil }, func() error { undone = append(undone, "a"); return nil }).
		Add("b", func() error { return nil }, func() error { undone = append(undone, "b"); return nil }).
		Add("boom", func() error { panic("kaboom") }, nil)
	err := tr.Run()
	if err == nil {
		t.Fatal("panicking Do reported success")
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Step != "boom" {
		t.Fatalf("err = %T %v, want *PanicError for step boom", err, err)
	}
	if !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("error hides the panic value: %q", err.Error())
	}
	if len(undone) != 2 || undone[0] != "b" || undone[1] != "a" {
		t.Fatalf("compensation order = %v, want [b a]", undone)
	}
}

// TestPanicInUndoIsRollbackError: a panicking compensation surfaces as
// a *RollbackError (landscape needs a human), not an unwound goroutine.
func TestPanicInUndoIsRollbackError(t *testing.T) {
	tr := (&Transaction{}).
		Add("a", func() error { return nil }, func() error { panic("undo kaboom") }).
		Add("fail", func() error { return errAborted }, nil)
	err := tr.Run()
	var re *RollbackError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T %v, want *RollbackError", err, err)
	}
	var pe *PanicError
	if !errors.As(re.UndoErr, &pe) || pe.Step != "a" {
		t.Fatalf("UndoErr = %T %v, want *PanicError for step a", re.UndoErr, re.UndoErr)
	}
	if !errors.Is(err, errAborted) {
		t.Errorf("rollback error lost the original cause: %v", err)
	}
}

// TestPanicSkipsNilUndo: rollback after a panic skips nil Undo steps
// and still compensates the rest.
func TestPanicSkipsNilUndo(t *testing.T) {
	var undone []string
	tr := (&Transaction{}).
		Add("a", func() error { return nil }, func() error { undone = append(undone, "a"); return nil }).
		Add("read-only", func() error { return nil }, nil).
		Add("boom", func() error { panic(42) }, nil)
	err := tr.Run()
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != 42 {
		t.Fatalf("err = %T %v, want *PanicError carrying 42", err, err)
	}
	if len(undone) != 1 || undone[0] != "a" {
		t.Fatalf("undone = %v, want [a]", undone)
	}
}
