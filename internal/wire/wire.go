// Package wire defines the control-plane protocol between AutoGlobe's
// central autonomic manager (the coordinator) and the per-host agents
// (cmd/autoglobe-agentd): versioned messages — heartbeat/load report,
// action request/ack, liveness probe — exchanged over a pluggable
// Transport. Two transports are provided: a deterministic in-memory
// loopback with injectable latency/drop/partition faults (for tests and
// single-process deployments) and a stdlib net/http transport of
// length-prefixed binary frames for real TCP landscapes. Only
// ActionRequest and ActionAck carry JSON tags: the coordinator journal
// stores them as JSON. Nothing is JSON on the wire. The paper's
// controller administered 19 blade
// hosts through ServiceGlobe's network substrate; this package is the
// equivalent substrate for the reproduction, shaped after the
// agent-streams-telemetry / manager-pushes-actions pattern of
// constraint-based autonomic deployment middleware.
//
// A host is described once and measured every minute, so the steady
// heartbeat carries numbers, not names: a coordinator acks a named
// heartbeat with the sender's indices in its session dictionary, and
// from then on the binary codec frames the report as indices and loads
// and its ack as two bytes (codec.go: indexed heartbeat, bare ack, index
// ack). The dictionary and the rules for using it live in package agent.
package wire

import "fmt"

// Version is the protocol version carried in every envelope. A node
// receiving an envelope with a different version must reject it — the
// stacked-deployment story (rolling agent upgrades) depends on loud,
// early incompatibility errors rather than silent misparses. Version 2
// added the session-indexed heartbeat and its two acks; every named
// heartbeat is answered with an index ack a version-1 agent could not
// decode, so the two versions refuse each other outright. Version 3 lets
// the index ack carry the coordinator's minute to a lagging agent
// (ActionAck.NextMinute).
const Version = 3

// MsgType enumerates the control-plane message kinds.
type MsgType string

// The message kinds of the protocol.
const (
	// TypeHeartbeat is the agent → coordinator load report; it doubles
	// as the liveness heartbeat (every load monitor's report is a
	// heartbeat, as in the monitoring pipeline).
	TypeHeartbeat MsgType = "heartbeat"
	// TypeAction is a coordinator → agent action request (start, stop,
	// bind, unbind, priority) carrying an idempotency key and deadline.
	TypeAction MsgType = "action"
	// TypeAck answers both heartbeats and actions.
	TypeAck MsgType = "ack"
	// TypeProbe is the coordinator → agent liveness probe, sent before a
	// silent host is declared dead.
	TypeProbe MsgType = "probe"
	// TypeProbeAck answers a probe.
	TypeProbeAck MsgType = "probeAck"
	// TypeHello announces an agent joining the landscape (host name and
	// hardware attributes), used by cmd/autoglobe-agentd.
	TypeHello MsgType = "hello"
	// TypeLease is the acting leader's renewal beacon: sent every
	// coordinated minute to standby coordinators (renewing their lease
	// timers), and to the agents whose last heartbeat did not carry the
	// leader's epoch to the leader (announcing which node currently
	// leads, so agents redirect after a takeover and drain buffered
	// heartbeats).
	TypeLease MsgType = "lease"
	// TypeLeaseAck answers a lease beacon, echoing the receiver's
	// highest known epoch — a sender that learns of a higher epoch from
	// an ack has been deposed and steps down to standby.
	TypeLeaseAck MsgType = "leaseAck"
)

// Op enumerates the host-local operations an action request can carry.
// A controller decision decomposes into one or more ops, each addressed
// to the agent of the affected host (see agent.OpsFor).
type Op string

// The host-local operations of the protocol.
const (
	// OpStart launches a new instance of a service on the agent's host.
	OpStart Op = "start"
	// OpStop terminates an instance on the agent's host.
	OpStop Op = "stop"
	// OpBind binds a relocating instance to the agent's host (the
	// service-IP bind half of a move).
	OpBind Op = "bind"
	// OpUnbind releases a relocating instance from the agent's host.
	OpUnbind Op = "unbind"
	// OpPriority adjusts an instance's scheduling priority.
	OpPriority Op = "priority"
)

// InstanceSample is one instance's load measurement inside a heartbeat.
type InstanceSample struct {
	ID      string
	Service string
	Load    float64
	// Index is the (ID, Service) pair's number in the session dictionary
	// of the coordinator the heartbeat is addressed to; zero: none.
	Index uint32
}

// Heartbeat is the per-minute load report of one host: the host-level
// CPU and memory loads plus a sample per resident instance. Its arrival
// is also the host's liveness beat.
//
// A heartbeat is indexed when Session, HostIndex and every sample's
// Index are non-zero: the numbers a coordinator incarnation handed out
// in its ack to an earlier, named heartbeat. The binary codec frames it
// without any name; in memory the names ride along.
type Heartbeat struct {
	Host      string
	Minute    int
	CPU       float64
	Mem       float64
	Instances []InstanceSample
	Session   uint64
	HostIndex uint32
}

// Indexed reports whether the host and every sample carry an index.
func (hb *Heartbeat) Indexed() bool {
	if hb.HostIndex == 0 || hb.Session == 0 {
		return false
	}
	for i := range hb.Instances {
		if hb.Instances[i].Index == 0 {
			return false
		}
	}
	return true
}

// ActionRequest asks an agent to apply one host-local operation.
type ActionRequest struct {
	// Key is the idempotency key: retries of the same logical operation
	// reuse the key, and the agent answers duplicates from its applied
	// cache instead of double-applying.
	Key string `json:"key"`
	// Op is the operation.
	Op Op `json:"op"`
	// Host is the destination host (redundant with the envelope's To,
	// kept for auditability of persisted logs).
	Host string `json:"host"`
	// Service names the service for start/bind operations.
	Service string `json:"service,omitempty"`
	// InstanceID identifies the affected instance.
	InstanceID string `json:"instanceID,omitempty"`
	// Delta is the priority adjustment for OpPriority.
	Delta int `json:"delta,omitempty"`
	// DeadlineUnixMS is the per-action deadline: an agent receiving the
	// request after this wall-clock instant rejects it (the coordinator
	// has given up and may already be compensating). Zero disables.
	DeadlineUnixMS int64 `json:"deadlineUnixMS,omitempty"`
}

// ActionAck answers an action request. Its fields are ordered for size
// (80 bytes): every agent caches one per action it applied.
type ActionAck struct {
	Key string `json:"key"`
	// Error explains a rejected request (OK false).
	Error string `json:"error,omitempty"`
	OK    bool   `json:"ok"`
	// Duplicate reports that the ack was served from the agent's
	// idempotency cache — the operation was NOT applied again.
	Duplicate bool `json:"duplicate,omitempty"`

	// The remaining fields answer heartbeats only. A named heartbeat is
	// acked with the sender's numbers in the coordinator's session
	// dictionary: Session, HostIndex and one index per sample, in sample
	// order. Resync (OK false) refuses an indexed heartbeat whose session
	// or indices the coordinator does not hold — nothing of it was
	// ingested, and the reporter sends the same minute again, named.
	Resync    bool     `json:"resync,omitempty"`
	HostIndex uint32   `json:"hostIndex,omitempty"`
	Session   uint64   `json:"session,omitempty"`
	Indices   []uint32 `json:"indices,omitempty"`
	// NextMinute, non-zero, answers a heartbeat stamped at or below the
	// minute the coordinator last closed: it is the minute the
	// coordinator is on, and the reporter moves its clock up to it. An
	// agent in step never receives it.
	NextMinute int `json:"nextMinute,omitempty"`
}

// Probe is a liveness probe for a silent host.
type Probe struct {
	Host   string
	Minute int
}

// Hello announces an agent joining the landscape.
type Hello struct {
	Host             string
	PerformanceIndex float64
	MemoryMB         int
	// Addr is the agent's reachable base URL on routed transports
	// (HTTP), so the coordinator can register the return route for
	// actions and probes. Empty on transports with implicit routing
	// (loopback).
	Addr string
}

// Lease is the leader-election renewal payload, shared by TypeLease
// (the beacon) and TypeLeaseAck (the reply). In a beacon, Leader names
// the sender claiming leadership, Epoch is its journal epoch and Minute
// is its authoritative coordinated minute. In an ack, Leader names the
// leader the receiver currently follows and Epoch is the highest epoch
// the receiver has seen — the fencing signal a deposed leader steps
// down on.
type Lease struct {
	Leader string
	Epoch  uint64
	Minute int
}

// Envelope is the versioned frame every message travels in.
type Envelope struct {
	Version int
	Type    MsgType
	From    string
	To      string
	Seq     uint64
	// Epoch is the sender's coordinator incarnation (the lease token of
	// the crash-recovery protocol): a journaled coordinator bumps its
	// epoch on every restart, and agents NACK action requests carrying
	// an epoch lower than the highest they have seen — a pre-crash
	// straggler or a split-brain predecessor cannot mutate a host the
	// new incarnation already administers. Zero (the default for
	// unjournaled coordinators) disables the guard. On a heartbeat it is
	// the agent's highest known epoch, which proves to an elected leader
	// that the agent already follows it (no lease renewal needed).
	Epoch uint64

	Heartbeat *Heartbeat
	Action    *ActionRequest
	Ack       *ActionAck
	Probe     *Probe
	Hello     *Hello
	Lease     *Lease

	// box links a pooled envelope back to its carrier; ReleaseEnvelope
	// recycles it. Nil for plainly constructed envelopes.
	box *envBox
}

// NewEnvelope frames a payload. Exactly one payload field should be set
// by the caller afterwards (or use the typed constructors below).
func NewEnvelope(t MsgType, from, to string) *Envelope {
	return &Envelope{Version: Version, Type: t, From: from, To: to}
}

// HeartbeatEnvelope frames a heartbeat.
func HeartbeatEnvelope(from, to string, hb Heartbeat) *Envelope {
	e := NewEnvelope(TypeHeartbeat, from, to)
	e.Heartbeat = &hb
	return e
}

// ProbeEnvelope frames a liveness probe.
func ProbeEnvelope(from, to string, p Probe) *Envelope {
	e := NewEnvelope(TypeProbe, from, to)
	e.Probe = &p
	return e
}

// HelloEnvelope frames a join announcement.
func HelloEnvelope(from, to string, h Hello) *Envelope {
	e := NewEnvelope(TypeHello, from, to)
	e.Hello = &h
	return e
}

// LeaseEnvelope frames a leader lease-renewal beacon.
func LeaseEnvelope(from, to string, l Lease) *Envelope {
	e := NewEnvelope(TypeLease, from, to)
	e.Lease = &l
	return e
}

// Validate checks version and payload consistency. Transports call it
// on receipt so a malformed or incompatible frame is rejected at the
// boundary, before any handler state changes.
func (e *Envelope) Validate() error {
	if e == nil {
		return fmt.Errorf("wire: nil envelope")
	}
	if e.Version != Version {
		return fmt.Errorf("wire: protocol version %d, want %d", e.Version, Version)
	}
	switch e.Type {
	case TypeHeartbeat:
		if e.Heartbeat == nil {
			return fmt.Errorf("wire: heartbeat envelope without heartbeat payload")
		}
	case TypeAction:
		if e.Action == nil {
			return fmt.Errorf("wire: action envelope without action payload")
		}
		if e.Action.Key == "" {
			return fmt.Errorf("wire: action without idempotency key")
		}
	case TypeAck:
		if e.Ack == nil {
			return fmt.Errorf("wire: ack envelope without ack payload")
		}
	case TypeProbe, TypeProbeAck:
		if e.Probe == nil {
			return fmt.Errorf("wire: probe envelope without probe payload")
		}
	case TypeHello:
		if e.Hello == nil {
			return fmt.Errorf("wire: hello envelope without hello payload")
		}
	case TypeLease, TypeLeaseAck:
		if e.Lease == nil {
			return fmt.Errorf("wire: lease envelope without lease payload")
		}
		if e.Lease.Leader == "" {
			return fmt.Errorf("wire: lease without leader name")
		}
	default:
		return fmt.Errorf("wire: unknown message type %q", e.Type)
	}
	return nil
}
