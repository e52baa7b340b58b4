package wire

import (
	"math/rand"
	"time"
)

// Fault seams and envelope builders only this package's tests use.

// Held reports how many messages are currently parked for node.
func (l *Loopback) Held(node string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ep := l.nodes[node]; ep != nil {
		return len(ep.held)
	}
	return 0
}

// SetLatency delays every delivery to node; a call whose context
// expires during the delay times out.
func (l *Loopback) SetLatency(node string, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.node(node).latency = d
}

// SetDropRate makes a fraction of deliveries vanish at random, driven
// by the given seed so a failing run replays exactly.
func (l *Loopback) SetDropRate(rate float64, seed uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dropRate = rate
	l.rng = rand.New(rand.NewSource(int64(seed)))
}

// ActionEnvelope frames an action request.
func ActionEnvelope(from, to string, req ActionRequest) *Envelope {
	e := NewEnvelope(TypeAction, from, to)
	e.Action = &req
	return e
}

// AckEnvelope frames an action ack.
func AckEnvelope(from, to string, ack ActionAck) *Envelope {
	e := NewEnvelope(TypeAck, from, to)
	e.Ack = &ack
	return e
}

// RuleGetEnvelope frames a rule-base lookup request.
func RuleGetEnvelope(from, to string, g RuleGet) *Envelope {
	e := NewEnvelope(TypeRuleGet, from, to)
	e.RuleGet = &g
	return e
}
