package wire

import (
	"context"
	"errors"
)

// Handler processes one incoming envelope and returns the reply
// envelope. Transports invoke it synchronously per delivered message;
// implementations must be safe for concurrent use.
type Handler func(*Envelope) (*Envelope, error)

// Transport moves envelopes between named nodes. Implementations:
// Loopback (in-memory, deterministic, fault-injectable) and HTTP
// (binary frames POSTed over net/http). A full monitor → controller → action round
// trip must behave identically on either — the control plane's logic
// lives above this interface.
type Transport interface {
	// Listen registers the handler for a node name. A node can listen
	// only once per transport.
	Listen(node string, h Handler) error
	// Call delivers the envelope to the destination node and returns its
	// reply. The context bounds the whole exchange; an expired context,
	// a dropped message or an unreachable node surface as errors the
	// caller treats uniformly as "no ack within the deadline".
	Call(ctx context.Context, node string, env *Envelope) (*Envelope, error)
	// Close releases transport resources (HTTP listeners, …).
	Close() error
}

// Sentinel errors transports return. Callers generally retry on any
// error; these exist so tests can assert on the exact failure mode.
var (
	// ErrTimeout reports a message or its reply that vanished (drop,
	// partition, or deadline).
	ErrTimeout = errors.New("wire: timed out waiting for ack")
	// ErrNoRoute reports a destination no handler is listening for.
	ErrNoRoute = errors.New("wire: no route to node")
	// ErrClosed reports use of a closed transport.
	ErrClosed = errors.New("wire: transport closed")
)
