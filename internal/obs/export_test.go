package obs

// Functions and methods only this package's tests call.

// Add shifts the value by a (possibly negative) delta.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, v)
}

// Len returns the number of sealed traces currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Total returns the number of traces ever begun (sealed or open),
// including those the ring has already evicted.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}
