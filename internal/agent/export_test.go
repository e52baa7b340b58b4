package agent

import "autoglobe/internal/wire"

// Fault seams and accessors only this package's tests use.

// FailNext makes the agent reject the next request carrying the given
// op with the message — a fault hook for partial-compound-failure
// tests (the real-world analogue: the host-local start script fails).
func (a *Agent) FailNext(op wire.Op, msg string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.failNextOp, a.failNextMsg = op, msg
}

// Host returns the agent's host name.
func (a *Agent) Host() string { return a.host }

// CoordEpoch returns the highest coordinator epoch the agent has seen.
func (a *Agent) CoordEpoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.coordEpoch
}

// Members reports the group's member nodes and roles, in member order.
func (e *Election) Members() map[string]string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]string, len(e.members))
	for _, m := range e.members {
		out[m.node] = m.getRole().String()
	}
	return out
}

// Epoch returns the wired leader's epoch.
func (e *Election) Epoch() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := e.members[e.leader]
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epochSeen
}

// String names the role, as Members reports it.
func (r memberRole) String() string {
	switch r {
	case RoleLeader:
		return "leader"
	case RoleDown:
		return "down"
	default:
		return "standby"
	}
}

// probeNames returns the hosts CheckLiveness would probe at minute, in
// probe order.
func (c *Coordinator) probeNames(minute int) []string {
	var names []string
	for _, hs := range c.probes(minute) {
		names = append(names, hs.name)
	}
	return names
}
