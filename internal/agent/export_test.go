package agent

import "autoglobe/internal/wire"

// Fault seams only this package's tests arm.

// FailNext makes the agent reject the next request carrying the given
// op with the message — a fault hook for partial-compound-failure
// tests (the real-world analogue: the host-local start script fails).
func (a *Agent) FailNext(op wire.Op, msg string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.failNextOp, a.failNextMsg = op, msg
}
