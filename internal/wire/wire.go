// Package wire defines the control-plane protocol between AutoGlobe's
// central autonomic manager (the coordinator) and the per-host agents
// (cmd/autoglobe-agentd): versioned messages — heartbeat/load report,
// action request/ack, liveness probe — exchanged over a pluggable
// Transport. Two transports are provided: a deterministic in-memory
// loopback with injectable latency/drop/partition faults (for tests and
// single-process deployments) and a stdlib net/http transport of
// length-prefixed binary frames for real TCP landscapes. The struct tags
// give a JSON rendering for debugging and logs; it is never put on the
// wire. The paper's controller administered 19 blade
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
	// TypeRuleGet asks the coordinator for one archived rule base
	// (by name, optionally by version); answered with a TypeRulePut
	// carrying the source, or an error.
	TypeRuleGet MsgType = "ruleGet"
	// TypeRulePut pushes a rule base to the coordinator's registry —
	// the admin half of treating rule bases as hot-swappable data. The
	// coordinator validates (parse + vocabulary + compile) before any
	// version is assigned or activated, and answers with a TypeRulePut
	// echoing the stored name/version/hash (or an Error). The same
	// payload shape also answers TypeRuleGet.
	TypeRulePut MsgType = "rulePut"
	// TypeRuleList asks for (request) and carries (reply) the registry
	// catalog: every stored rule-base version and which are active.
	TypeRuleList MsgType = "ruleList"
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
	ID      string  `json:"id"`
	Service string  `json:"service"`
	Load    float64 `json:"load"`
	// Index is the (ID, Service) pair's number in the session dictionary
	// of the coordinator the heartbeat is addressed to; zero: none.
	Index uint32 `json:"index,omitempty"`
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
	Host      string           `json:"host"`
	Minute    int              `json:"minute"`
	CPU       float64          `json:"cpu"`
	Mem       float64          `json:"mem"`
	Instances []InstanceSample `json:"instances,omitempty"`
	Session   uint64           `json:"session,omitempty"`
	HostIndex uint32           `json:"hostIndex,omitempty"`
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
	Host   string `json:"host"`
	Minute int    `json:"minute"`
}

// Hello announces an agent joining the landscape.
type Hello struct {
	Host             string  `json:"host"`
	PerformanceIndex float64 `json:"performanceIndex"`
	MemoryMB         int     `json:"memoryMB"`
	// Addr is the agent's reachable base URL on routed transports
	// (HTTP), so the coordinator can register the return route for
	// actions and probes. Empty on transports with implicit routing
	// (loopback).
	Addr string `json:"addr,omitempty"`
}

// RuleGet asks for one rule base from the coordinator's registry.
type RuleGet struct {
	// Name addresses the rule base ("serviceOverloaded",
	// "select/placement", …).
	Name string `json:"name"`
	// Version selects an archived version; zero means the active one.
	Version int `json:"version,omitempty"`
}

// RulePut carries a rule base's source text. As a request it pushes a
// candidate to the coordinator's registry; as a reply it echoes what
// was stored (Version and Hash assigned by the registry) or answers a
// RuleGet, or reports an Error with everything else empty.
type RulePut struct {
	Name string `json:"name"`
	// Version is registry-assigned in replies; requests leave it zero
	// (journal replay between coordinators pins it explicitly).
	Version int `json:"version,omitempty"`
	// Hash is the hex SHA-256 of Source. Requests may leave it empty;
	// when set, the receiver verifies it against the received Source
	// before validating — a cheap end-to-end corruption check.
	Hash string `json:"hash,omitempty"`
	// Source is the rule-language text.
	Source string `json:"source,omitempty"`
	// Activate asks the coordinator to hot-swap the pushed version into
	// the live controller after validation. False archives it only — an
	// admin can then shadow-evaluate before promoting.
	Activate bool `json:"activate,omitempty"`
	// Error reports a rejected push or failed lookup (reply only).
	Error string `json:"error,omitempty"`
}

// RuleInfo is one registry entry in a rule-list reply, mirroring the
// rules package's Ref.
type RuleInfo struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	Hash    string `json:"hash"`
	Active  bool   `json:"active,omitempty"`
	Rules   int    `json:"rules,omitempty"`
}

// RuleList is both the catalog request (empty) and its reply.
type RuleList struct {
	Entries []RuleInfo `json:"entries,omitempty"`
	Error   string     `json:"error,omitempty"`
}

// Lease is the leader-election renewal payload, shared by TypeLease
// (the beacon) and TypeLeaseAck (the reply). In a beacon, Leader names
// the sender claiming leadership, Epoch is its journal epoch and Minute
// is its authoritative coordinated minute. In an ack, Leader names the
// leader the receiver currently follows and Epoch is the highest epoch
// the receiver has seen — the fencing signal a deposed leader steps
// down on.
type Lease struct {
	Leader string `json:"leader"`
	Epoch  uint64 `json:"epoch"`
	Minute int    `json:"minute"`
}

// Envelope is the versioned frame every message travels in.
type Envelope struct {
	Version int     `json:"v"`
	Type    MsgType `json:"type"`
	From    string  `json:"from"`
	To      string  `json:"to"`
	Seq     uint64  `json:"seq,omitempty"`
	// Epoch is the sender's coordinator incarnation (the lease token of
	// the crash-recovery protocol): a journaled coordinator bumps its
	// epoch on every restart, and agents NACK action requests carrying
	// an epoch lower than the highest they have seen — a pre-crash
	// straggler or a split-brain predecessor cannot mutate a host the
	// new incarnation already administers. Zero (the default for
	// unjournaled coordinators) disables the guard. On a heartbeat it is
	// the agent's highest known epoch, which proves to an elected leader
	// that the agent already follows it (no lease renewal needed).
	Epoch uint64 `json:"epoch,omitempty"`

	Heartbeat *Heartbeat     `json:"heartbeat,omitempty"`
	Action    *ActionRequest `json:"action,omitempty"`
	Ack       *ActionAck     `json:"ack,omitempty"`
	Probe     *Probe         `json:"probe,omitempty"`
	Hello     *Hello         `json:"hello,omitempty"`
	RuleGet   *RuleGet       `json:"ruleGet,omitempty"`
	RulePut   *RulePut       `json:"rulePut,omitempty"`
	RuleList  *RuleList      `json:"ruleList,omitempty"`
	Lease     *Lease         `json:"lease,omitempty"`

	// box links a pooled envelope back to its carrier; ReleaseEnvelope
	// recycles it. Nil for plainly constructed envelopes.
	box *envBox `json:"-"`
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

// RulePutEnvelope frames a rule-base push (or a ruleGet reply).
func RulePutEnvelope(from, to string, p RulePut) *Envelope {
	e := NewEnvelope(TypeRulePut, from, to)
	e.RulePut = &p
	return e
}

// RuleListEnvelope frames a registry-catalog request or reply.
func RuleListEnvelope(from, to string, l RuleList) *Envelope {
	e := NewEnvelope(TypeRuleList, from, to)
	e.RuleList = &l
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
	case TypeRuleGet:
		if e.RuleGet == nil {
			return fmt.Errorf("wire: ruleGet envelope without ruleGet payload")
		}
		if e.RuleGet.Name == "" {
			return fmt.Errorf("wire: ruleGet without rule-base name")
		}
	case TypeRulePut:
		if e.RulePut == nil {
			return fmt.Errorf("wire: rulePut envelope without rulePut payload")
		}
		if e.RulePut.Name == "" {
			return fmt.Errorf("wire: rulePut without rule-base name")
		}
		// A push carries Source; an error reply carries Error; a success
		// reply carries the registry-assigned Version. Anything with none
		// of the three says nothing at all.
		if e.RulePut.Source == "" && e.RulePut.Error == "" && e.RulePut.Version == 0 {
			return fmt.Errorf("wire: rulePut without source, version or error")
		}
	case TypeRuleList:
		if e.RuleList == nil {
			return fmt.Errorf("wire: ruleList envelope without ruleList payload")
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
