package monitor

// Functions and methods only this package's tests call.

// Params returns the system's tunables.
func (s *System) Params() Params { return s.params }
