package agent

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"autoglobe/internal/obs"
	"autoglobe/internal/wire"
)

// DispatchConfig tunes the coordinator's action dispatcher.
type DispatchConfig struct {
	// From is the sender node name stamped on outgoing envelopes
	// (default CoordinatorNode).
	From string
	// Timeout bounds one delivery attempt (default 2s).
	Timeout time.Duration
	// MaxAttempts is how often an unacknowledged action is retried
	// before the dispatcher gives up (default 4).
	MaxAttempts int
	// BaseBackoff is the pause after the first failed attempt; each
	// further attempt doubles it up to MaxBackoff (defaults 25ms / 1s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Sleep and Now are clock hooks for tests (Now defaults to
	// time.Now). A nil Sleep waits on a timer that also honours context
	// cancellation — a retrying dispatch stops backing off the moment
	// its caller gives up — while a test-provided Sleep is called
	// instead.
	Sleep func(time.Duration)
	Now   func() time.Time
}

func (c DispatchConfig) withDefaults() DispatchConfig {
	if c.From == "" {
		c.From = CoordinatorNode
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 25 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// DispatchStats counts dispatcher outcomes, for tests and the console.
type DispatchStats struct {
	// Actions is the number of logical operations dispatched.
	Actions int
	// Retries counts re-sent attempts (lost requests or lost acks).
	Retries int
	// Duplicates counts acks served from an agent's idempotency cache —
	// evidence a retry re-delivered an already-applied operation.
	Duplicates int
	// Nacks counts agent rejections (permanent failures).
	Nacks int
	// Expired counts operations abandoned after MaxAttempts.
	Expired int
}

// NackError reports that the agent received the request and refused it.
// It is permanent: retrying would yield the same answer, so the
// dispatcher surfaces it immediately and the transaction layer
// compensates.
type NackError struct {
	Host string
	Ack  wire.ActionAck
}

func (e *NackError) Error() string {
	return fmt.Sprintf("agent: %s rejected %s: %s", e.Host, e.Ack.Key, e.Ack.Error)
}

// Dispatcher sends action requests to agents with timeout, bounded
// exponential backoff with deterministic jitter, and retries. Lost
// messages and lost acks are indistinguishable to it — both retry with
// the same idempotency key, and the agent's cache keeps re-delivery
// safe. One call carries one action; it is safe for concurrent use and
// keeps no per-host state: every minted key is used for one action
// only, and a retry's jitter is a function of its key and attempt.
type Dispatcher struct {
	cfg DispatchConfig
	tr  wire.Transport

	seq     atomic.Uint64
	actions atomic.Int64
	retries atomic.Int64
	dups    atomic.Int64
	nacks   atomic.Int64
	expired atomic.Int64

	metrics atomic.Pointer[dispatchMetrics]
	tracer  atomic.Pointer[obs.Tracer]
	journal atomic.Pointer[CoordinatorJournal]
	epoch   atomic.Uint64
}

// NewDispatcher builds a dispatcher over the transport.
func NewDispatcher(cfg DispatchConfig, tr wire.Transport) *Dispatcher {
	cfg = cfg.withDefaults()
	return &Dispatcher{cfg: cfg, tr: tr}
}

// Instrument attaches an obs registry: subsequent dispatches count
// attempts, acks, nacks, duplicates, expirations and compensations.
// A nil registry leaves the dispatcher uninstrumented.
func (d *Dispatcher) Instrument(r *obs.Registry) {
	d.metrics.Store(newDispatchMetrics(r))
}

// Trace attaches a tracer: every completed dispatch appends one
// per-host TraceDispatch event to the open control-loop trace.
func (d *Dispatcher) Trace(tr *obs.Tracer) {
	d.tracer.Store(tr)
}

// AttachJournal makes the dispatcher crash-safe: every dispatch is
// write-ahead journaled before it reaches the transport, every terminal
// outcome (ack or NACK) is journaled when it arrives, and outgoing
// envelopes are stamped with the journal's epoch so agents can reject
// traffic from superseded incarnations. Keys minted after attachment
// are epoch-scoped ("from-e<epoch>-<seq>"), so a recovered incarnation
// can never collide with its predecessor's keys in an agent's
// idempotency cache. A nil journal detaches.
func (d *Dispatcher) AttachJournal(cj *CoordinatorJournal) {
	var epoch uint64
	if cj != nil {
		epoch = cj.Epoch()
	}
	d.journal.Store(cj)
	d.epoch.Store(epoch)
}

// Journal returns the attached coordinator journal, or nil.
func (d *Dispatcher) Journal() *CoordinatorJournal {
	return d.journal.Load()
}

// Stats returns a snapshot of the dispatch counters.
func (d *Dispatcher) Stats() DispatchStats {
	return DispatchStats{
		Actions:    int(d.actions.Load()),
		Retries:    int(d.retries.Load()),
		Duplicates: int(d.dups.Load()),
		Nacks:      int(d.nacks.Load()),
		Expired:    int(d.expired.Load()),
	}
}

// mintKey returns a fresh idempotency key. With a journal attached the
// key is epoch-scoped: two coordinator incarnations can never mint the
// same key, so an agent's cached answer is always for the incarnation
// that asked.
func (d *Dispatcher) mintKey(epoch uint64) string {
	seq := d.seq.Add(1)
	if epoch > 0 {
		return fmt.Sprintf("%s-e%d-%06d", d.cfg.From, epoch, seq)
	}
	return fmt.Sprintf("%s-%06d", d.cfg.From, seq)
}

// backoff returns the jittered pause before retry attempt+1. The jitter
// spreads concurrent retriers over [50%, 100%] of the nominal delay; it
// is a hash of the key and the attempt, so a failing run replays the
// same pauses whatever else the dispatcher sent.
func (d *Dispatcher) backoff(key string, attempt int) time.Duration {
	delay := d.cfg.BaseBackoff << (attempt - 1)
	if delay > d.cfg.MaxBackoff || delay <= 0 {
		delay = d.cfg.MaxBackoff
	}
	// FNV-1a over the key, then the splitmix64 finaliser over the
	// attempt, so neighbouring keys and attempts draw unrelated jitter.
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	h += uint64(attempt) * 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	h ^= h >> 31
	f := 0.5 + 0.5*float64(h>>11)/(1<<53)
	return time.Duration(float64(delay) * f)
}

// pause waits the backoff delay out: through the test hook when one is
// configured, otherwise on a timer raced against the caller's context.
func (d *Dispatcher) pause(ctx context.Context, dur time.Duration) {
	if d.cfg.Sleep != nil {
		d.cfg.Sleep(dur)
		return
	}
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// retryBudget is the wall-clock span of a full retry schedule — the
// default per-action deadline.
func (d *Dispatcher) retryBudget() time.Duration {
	return time.Duration(d.cfg.MaxAttempts)*d.cfg.Timeout +
		time.Duration(d.cfg.MaxAttempts)*d.cfg.MaxBackoff
}

// Do delivers one operation to the agent of req.Host and returns its
// ack. A missing idempotency key is minted; a missing deadline is set
// to the dispatcher's full retry budget, so an agent receiving a
// stale straggler after the dispatcher has given up rejects it.
func (d *Dispatcher) Do(ctx context.Context, req wire.ActionRequest) (wire.ActionAck, error) {
	return d.do(ctx, req, false)
}

// do is Do with the compensation flag the transaction layer sets on
// Undo dispatches, so metrics and traces can tell rollback traffic
// from forward progress.
func (d *Dispatcher) do(ctx context.Context, req wire.ActionRequest, compensation bool) (wire.ActionAck, error) {
	if req.Host == "" {
		return wire.ActionAck{}, fmt.Errorf("agent: dispatch without destination host")
	}
	m := d.metrics.Load()
	tracer := d.tracer.Load()
	cj := d.journal.Load()
	epoch := d.epoch.Load()
	if req.Key == "" {
		req.Key = d.mintKey(epoch)
	}
	if req.DeadlineUnixMS == 0 {
		req.DeadlineUnixMS = d.cfg.Now().Add(d.retryBudget()).UnixMilli()
	}
	d.actions.Add(1)
	if compensation {
		m.compensation()
	}
	if cj != nil {
		// Write-ahead: the dispatch record must be durable BEFORE the
		// action can reach the transport. A crash anywhere after this
		// point leaves the action pending, and recovery re-issues it
		// under the same idempotency key.
		if err := cj.LogDispatch(req); err != nil {
			return wire.ActionAck{}, err
		}
	}
	ev := obs.TraceDispatch{
		Host: req.Host, Op: string(req.Op), Key: req.Key,
		InstanceID: req.InstanceID, Compensation: compensation,
	}

	var lastErr error
	attempts := 0
	for attempt := 1; attempt <= d.cfg.MaxAttempts; attempt++ {
		attempts = attempt
		if attempt > 1 {
			d.pause(ctx, d.backoff(req.Key, attempt-1))
			d.retries.Add(1)
		}
		// The caller's context bounds the WHOLE retry loop, backoff
		// included — once it expires no further attempt may be made.
		if ctx.Err() != nil {
			if lastErr == nil {
				lastErr = wire.ErrTimeout
			}
			break
		}
		m.attempt()
		env := wire.AcquireActionEnvelope(d.cfg.From, req.Host, req)
		env.Epoch = epoch
		ac, cancel := context.WithTimeout(ctx, d.cfg.Timeout)
		reply, err := d.tr.Call(ac, req.Host, env)
		cancel()
		wire.ReleaseEnvelope(env)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break // the caller's deadline, not the attempt's
			}
			continue
		}
		if reply == nil || reply.Ack == nil {
			wire.ReleaseEnvelope(reply)
			lastErr = fmt.Errorf("agent: %s answered without ack", req.Host)
			continue
		}
		ack := *reply.Ack
		wire.ReleaseEnvelope(reply)
		if ack.Duplicate {
			d.dups.Add(1)
		}
		ev.Attempts = attempt
		ev.OK = ack.OK
		ev.Duplicate = ack.Duplicate
		if !ack.OK {
			d.nacks.Add(1)
			m.nack()
			ev.Error = ack.Error
			tracer.Dispatch(ev)
			if cj != nil {
				// A NACK is a known fate: journal it so recovery does not
				// re-issue the rejected action. Losing the record is safe —
				// a re-issue is answered from the agent's cache.
				cj.LogAck(req.Key, ack) //nolint:errcheck
			}
			return ack, &NackError{Host: req.Host, Ack: ack}
		}
		m.ok(ack.Duplicate)
		tracer.Dispatch(ev)
		if cj != nil {
			if jerr := cj.LogAck(req.Key, ack); jerr != nil {
				// The operation applied but its fate could not be made
				// durable. Surfacing the journal failure lets the
				// transaction layer compensate; the agent's idempotency
				// cache keeps any later re-issue harmless.
				return ack, fmt.Errorf("agent: %s applied but journal failed: %w", req.Key, jerr)
			}
		}
		return ack, nil
	}
	d.expired.Add(1)
	m.expire()
	err := fmt.Errorf("agent: %s %s on %s: no ack after %d attempts: %w",
		req.Op, req.InstanceID, req.Host, d.cfg.MaxAttempts, lastErr)
	ev.Attempts = attempts
	ev.OK = false
	ev.Error = err.Error()
	tracer.Dispatch(ev)
	if cj != nil {
		// Giving up IS a known fate: the caller (the transaction layer)
		// handles the failure now — compensating the completed prefix —
		// so a later recovery must NOT resurrect this action. Journal the
		// abandonment as a terminal record; the action's own deadline
		// keeps any straggler delivery rejected agent-side. Only a crash
		// in the window between the dispatch record and this one leaves
		// the action pending for recovery to resolve.
		cj.LogAck(req.Key, wire.ActionAck{Key: req.Key, OK: false, Error: "abandoned: " + err.Error()}) //nolint:errcheck
	}
	return wire.ActionAck{}, err
}
