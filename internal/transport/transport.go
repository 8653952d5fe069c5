// Package transport provides the reliable messaging layer between the
// application master and workers — the stand-in for the paper's ZeroMQ
// sockets (Section V-D). It has two wires behind one Handler type.
//
// The in-process Bus carries the job's own traffic. Every message carries a
// unique ID plus the sender's endpoint incarnation; senders resend on ack
// timeout and receivers deduplicate by (incarnation, ID), so delivery is
// exactly-once at the handler as long as the peer eventually responds. The
// incarnation number survives endpoint removal: a crash-restarted sender
// starts a new incarnation instead of reusing low message IDs that the
// receiver's dedup state would silently swallow, and a zombie sender from a
// fenced incarnation is rejected with ErrStaleIncarnation. A configurable
// drop rate, latency and a pluggable fault hook (partition / drop-burst /
// straggler injection, see internal/chaos) let tests inject failures.
//
// The TCP Server (rpc.go) and the pooled Client (pool.go) carry the same
// request/reply protocol across a process boundary, with at-least-once
// retry semantics instead of dedup.
package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/telemetry"
)

// Errors returned by the transport layer.
var (
	ErrNoEndpoint = errors.New("transport: no such endpoint")
	ErrTimeout    = errors.New("transport: send timed out after all retries")
	ErrClosed     = errors.New("transport: endpoint closed")
	// ErrStaleIncarnation is replied to a sender whose endpoint incarnation
	// is older than one the receiver has already heard from — a zombie that
	// was replaced by a restarted instance must stop, not be silently acked.
	ErrStaleIncarnation = errors.New("transport: message from stale sender incarnation")
	// ErrSuperseded is replied to a message whose ID is below the highest
	// the receiver has handled from the same sender incarnation. The
	// receiver keeps no record of older IDs, so it cannot tell whether the
	// handler ran for this one; the caller must not take the call as done.
	ErrSuperseded = errors.New("transport: message superseded by a newer one from the same sender")
)

// Package-level defaults, referenced everywhere a config value is missing
// so the numbers exist in exactly one place.
const (
	// DefaultAckTimeout is how long a sender waits for an ack before
	// resending when BusConfig.AckTimeout is unset.
	DefaultAckTimeout = 20 * time.Millisecond
	// DefaultMaxRetries bounds resends when BusConfig.MaxRetries is unset.
	DefaultMaxRetries = 10
)

// Message is the unit of communication. Payloads are opaque bytes; Kind
// routes them at the receiver. Inc is the sender endpoint's incarnation:
// message IDs are only monotonic within one incarnation, so receivers key
// their dedup state on (From, Inc) and reset it when a restarted sender
// shows up with a higher incarnation.
type Message struct {
	ID      uint64 `json:"id"`
	Inc     uint64 `json:"inc"`
	From    string `json:"from"`
	To      string `json:"to"`
	Kind    string `json:"kind"`
	Payload []byte `json:"payload"`
	// Trace carries the sender's span identity so the receiver's handler
	// span joins the same causal tree. The zero value means "untraced" and
	// costs nothing to propagate.
	Trace telemetry.TraceContext `json:"trace"`
}

// Fate is a fault hook's verdict on one delivery leg.
type Fate struct {
	// Drop loses this leg; the sender's resend protocol recovers (or times
	// out) exactly as for a random drop.
	Drop bool
	// Delay adds straggler latency to this leg on top of the bus's
	// configured Latency.
	Delay time.Duration
}

// FaultHook inspects a delivery leg and decides its fate. It is consulted
// once for the request leg (msg as sent) and once for the reply leg (From
// and To swapped), so symmetric partitions need no special casing. Hooks
// run on delivery goroutines and must be safe for concurrent use.
type FaultHook func(m Message) Fate

// Handler processes an inbound message and optionally returns a reply
// payload (delivered to the sender's Call, if any).
type Handler func(Message) ([]byte, error)

// BusConfig controls the simulated fault characteristics of the bus.
type BusConfig struct {
	// DropRate is the probability a given delivery attempt is lost.
	DropRate float64
	// Latency delays every delivery.
	Latency time.Duration
	// AckTimeout is how long a sender waits for an ack before resending.
	AckTimeout time.Duration
	// MaxRetries bounds resends before Send fails with ErrTimeout.
	MaxRetries int
	// Seed makes drop decisions deterministic.
	Seed int64
	// Clock is the time source for ack timeouts and latency injection.
	// Nil selects the wall clock; tests inject a clock.Sim so the whole
	// resend protocol runs on instant virtual time.
	Clock clock.Clock
	// Tracer records a span per Call with resend events; nil disables
	// tracing at zero cost.
	Tracer telemetry.Tracer
	// Metrics receives the bus counters (calls, resends, drops, errors)
	// and the call-latency histogram; nil disables them at zero cost.
	Metrics *telemetry.Registry
}

// DefaultBusConfig returns a lossless, low-latency configuration.
func DefaultBusConfig() BusConfig {
	return BusConfig{
		AckTimeout: DefaultAckTimeout,
		MaxRetries: DefaultMaxRetries,
	}
}

// Bus is an in-process message fabric connecting named endpoints.
type Bus struct {
	cfg BusConfig
	clk clock.Clock
	tr  telemetry.Tracer

	// Instruments are resolved once at construction; all are nil-safe, so
	// an uninstrumented bus pays nothing on the call path.
	mCalls      *telemetry.Counter
	mResends    *telemetry.Counter
	mDrops      *telemetry.Counter
	mCallErrors *telemetry.Counter
	mLatency    *telemetry.Histogram

	// ctx is the bus lifecycle: Close cancels it, aborting in-flight
	// latency sleeps and pending calls. wg tracks delivery goroutines so
	// Close can prove they all exited.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	rng       *rand.Rand
	endpoints map[string]*Endpoint
	// incarnations counts endpoint creations per name. Unlike the endpoint
	// map it survives Remove, so a re-created endpoint (a restarted worker
	// or AM) sends under a strictly higher incarnation.
	incarnations map[string]uint64
	hook         FaultHook
}

// NewBus constructs a bus. Invalid config values are normalized.
func NewBus(cfg BusConfig) *Bus {
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = DefaultAckTimeout
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.DropRate < 0 {
		cfg.DropRate = 0
	}
	if cfg.DropRate > 0.95 {
		cfg.DropRate = 0.95
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Bus{
		cfg:          cfg,
		clk:          cfg.Clock,
		tr:           telemetry.OrNop(cfg.Tracer),
		mCalls:       cfg.Metrics.Counter("transport_calls_total"),
		mResends:     cfg.Metrics.Counter("transport_resends_total"),
		mDrops:       cfg.Metrics.Counter("transport_drops_total"),
		mCallErrors:  cfg.Metrics.Counter("transport_call_errors_total"),
		mLatency:     cfg.Metrics.Histogram("transport_call_seconds"),
		ctx:          ctx,
		cancel:       cancel,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		endpoints:    make(map[string]*Endpoint),
		incarnations: make(map[string]uint64),
	}
}

// SetFaultHook installs (or, with nil, clears) the hook consulted on every
// delivery leg. Chaos harnesses use it to inject partitions, drop bursts
// and straggler latency without reconfiguring the bus.
func (b *Bus) SetFaultHook(h FaultHook) {
	b.mu.Lock()
	b.hook = h
	b.mu.Unlock()
}

// fate consults the fault hook for one delivery leg; a nil hook lets
// everything through untouched.
func (b *Bus) fate(m Message) Fate {
	b.mu.Lock()
	h := b.hook
	b.mu.Unlock()
	if h == nil {
		return Fate{}
	}
	f := h(m)
	if f.Drop {
		b.mDrops.Inc()
	}
	return f
}

// Clock returns the bus's time source.
func (b *Bus) Clock() clock.Clock { return b.clk }

// Close shuts the bus down: every endpoint is closed, in-flight deliveries
// are aborted, and Close blocks until all delivery goroutines have exited
// — after Close returns the bus owns no goroutines. Closing twice is safe.
func (b *Bus) Close() {
	b.cancel()
	b.mu.Lock()
	eps := make([]*Endpoint, 0, len(b.endpoints))
	for _, ep := range b.endpoints {
		eps = append(eps, ep)
	}
	b.endpoints = make(map[string]*Endpoint)
	b.mu.Unlock()
	for _, ep := range eps {
		ep.close()
	}
	b.wg.Wait()
}

// Endpoint creates (or returns) the endpoint with the given name and sets
// its handler. The handler runs on the delivery goroutine.
func (b *Bus) Endpoint(name string, h Handler) (*Endpoint, error) {
	if name == "" {
		return nil, errors.New("transport: empty endpoint name")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if ep, ok := b.endpoints[name]; ok {
		ep.mu.Lock()
		ep.handler = h
		ep.mu.Unlock()
		return ep, nil
	}
	b.incarnations[name]++
	ep := &Endpoint{
		name:      name,
		bus:       b,
		inc:       b.incarnations[name],
		handler:   h,
		seen:      make(map[string]uint64),
		peerInc:   make(map[string]uint64),
		lastReply: make(map[string]reply),
		inflight:  make(map[string]*inflightCall),
		replies:   make(map[uint64]chan reply),
		closed:    make(chan struct{}),
	}
	b.endpoints[name] = ep
	return ep, nil
}

// Remove deletes an endpoint from the bus (worker shutdown / migration).
func (b *Bus) Remove(name string) {
	if ep, ok := b.lookup(name); ok {
		ep.Close()
	}
}

// shouldDrop decides message loss under the bus lock.
func (b *Bus) shouldDrop() bool {
	if b.cfg.DropRate == 0 {
		return false
	}
	b.mu.Lock()
	drop := b.rng.Float64() < b.cfg.DropRate
	b.mu.Unlock()
	if drop {
		b.mDrops.Inc()
	}
	return drop
}

func (b *Bus) lookup(name string) (*Endpoint, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ep, ok := b.endpoints[name]
	return ep, ok
}

type reply struct {
	payload []byte
	err     error
}

// inflightCall tracks a message whose handler is still executing, so a
// duplicate delivery (a resend racing the slow handler) waits for the
// genuine reply instead of returning the previous message's cached one.
type inflightCall struct {
	id   uint64
	inc  uint64
	done chan struct{}
	r    reply // valid once done is closed
}

// Endpoint is a named participant on a bus.
type Endpoint struct {
	name string
	bus  *Bus
	// inc is this endpoint's incarnation, stamped on every message it
	// sends; assigned once at creation from the bus's per-name counter.
	inc uint64

	mu      sync.Mutex
	handler Handler
	nextID  uint64
	// seen[from] is the highest processed message ID from that sender used
	// for dedup; senders allocate IDs monotonically within an incarnation.
	seen map[string]uint64
	// peerInc[from] is the highest sender incarnation heard from; a higher
	// one resets the dedup state, a lower one is a fenced zombie.
	peerInc map[string]uint64
	// lastReply[from] caches the reply to the highest processed message so
	// that a resend (after a dropped reply) still returns the real result.
	lastReply map[string]reply
	// inflight[from] is the latest message from that sender whose handler
	// has not returned yet.
	inflight map[string]*inflightCall
	replies  map[uint64]chan reply

	closeOnce sync.Once
	closed    chan struct{}
}

// Name returns the endpoint's bus name.
func (e *Endpoint) Name() string { return e.name }

// Incarnation returns the endpoint's incarnation number: 1 for the first
// endpoint created under a name, and one higher for each re-creation after
// a Remove (a restarted process).
func (e *Endpoint) Incarnation() uint64 { return e.inc }

func (e *Endpoint) close() {
	e.closeOnce.Do(func() { close(e.closed) })
}

// Close takes this endpoint off its bus and fails its in-flight calls with
// ErrClosed. Unlike Bus.Remove it never touches a successor registered
// under the same name since. Closing twice is safe.
func (e *Endpoint) Close() {
	b := e.bus
	b.mu.Lock()
	if b.endpoints[e.name] == e {
		delete(b.endpoints, e.name)
	}
	b.mu.Unlock()
	e.close()
}

// allocID returns the next message ID for this sender.
func (e *Endpoint) allocID() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextID++
	return e.nextID
}

// Call sends a message and waits for the receiver's reply, resending on
// timeout and deduplicating at the receiver. It is the reliable RPC used for
// AM<->worker coordination.
func (e *Endpoint) Call(to, kind string, payload []byte) ([]byte, error) {
	return e.CallCtx(context.Background(), to, kind, payload)
}

// CallCtx is Call under a caller-supplied context: cancellation aborts the
// resend loop immediately with ctx.Err(), independent of the ack timeout.
func (e *Endpoint) CallCtx(ctx context.Context, to, kind string, payload []byte) (_ []byte, err error) {
	select {
	case <-e.closed:
		return nil, ErrClosed
	case <-e.bus.ctx.Done():
		return nil, ErrClosed
	default:
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b := e.bus
	b.mCalls.Inc()
	// A span already in ctx makes this call a child in the caller's causal
	// tree; otherwise the call roots a fresh trace on the bus tracer.
	var span *telemetry.Span
	if parent := telemetry.SpanFromContext(ctx); parent != nil {
		span = parent.Child("transport.call")
	} else {
		span = b.tr.StartSpan("transport.call")
		span.SetProc(e.name)
	}
	span.Annotate("from", e.name)
	span.Annotate("to", to)
	span.Annotate("kind", kind)
	callStart := b.clk.Now()
	defer func() {
		b.mLatency.Observe(b.clk.Since(callStart).Seconds())
		if err != nil {
			b.mCallErrors.Inc()
			span.Annotate("error", err.Error())
		}
		span.End()
	}()
	msg := Message{
		ID:      e.allocID(),
		Inc:     e.inc,
		From:    e.name,
		To:      to,
		Kind:    kind,
		Payload: payload,
		Trace:   span.Context(),
	}
	ch := make(chan reply, 1)
	e.mu.Lock()
	e.replies[msg.ID] = ch
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.replies, msg.ID)
		e.mu.Unlock()
	}()

	timer := e.bus.clk.NewTimer(e.bus.cfg.AckTimeout)
	defer timer.Stop()
	for attempt := 0; attempt < e.bus.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			// Only reached after draining the previous expiry, so Reset is
			// safe under the time.Timer contract.
			timer.Reset(e.bus.cfg.AckTimeout)
		}
		e.deliver(msg)
		select {
		case r := <-ch:
			return r.payload, r.err
		case <-timer.C():
			// resend (timeout: either the message or its reply was dropped)
			b.mResends.Inc()
			span.Event("resend")
		case <-e.closed:
			return nil, ErrClosed
		case <-e.bus.ctx.Done():
			return nil, ErrClosed
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("%w (to=%s kind=%s id=%d)", ErrTimeout, to, kind, msg.ID)
}

// deliver attempts one delivery of msg (possibly dropped by the configured
// rate or the fault hook). The receiver's handler runs on a fresh
// bus-tracked goroutine; its reply is routed back to the pending Call, also
// subject to drops and fault injection.
func (e *Endpoint) deliver(msg Message) {
	if e.bus.shouldDrop() {
		return
	}
	fate := e.bus.fate(msg)
	if fate.Drop {
		return
	}
	dst, ok := e.bus.lookup(msg.To)
	if !ok {
		// Unknown destination: reply with an error so Call fails fast
		// instead of burning retries.
		e.routeReply(msg.ID, reply{err: fmt.Errorf("%w: %s", ErrNoEndpoint, msg.To)})
		return
	}
	e.bus.wg.Add(1)
	go func() {
		defer e.bus.wg.Done()
		if d := e.bus.cfg.Latency + fate.Delay; d > 0 {
			if e.bus.clk.Sleep(e.bus.ctx, d) != nil {
				return // bus closed mid-flight
			}
		}
		payload, err := dst.handle(msg)
		if e.bus.shouldDrop() {
			return // the reply got lost; sender will resend
		}
		back := msg
		back.From, back.To = msg.To, msg.From
		backFate := e.bus.fate(back)
		if backFate.Drop {
			return
		}
		if d := e.bus.cfg.Latency + backFate.Delay; d > 0 {
			if e.bus.clk.Sleep(e.bus.ctx, d) != nil {
				return
			}
		}
		e.routeReply(msg.ID, reply{payload: payload, err: err})
	}()
}

func (e *Endpoint) routeReply(id uint64, r reply) {
	e.mu.Lock()
	ch, ok := e.replies[id]
	e.mu.Unlock()
	if ok {
		select {
		case ch <- r:
		default: // a retry already delivered a reply
		}
	}
}

// handle runs the endpoint handler exactly once per (incarnation, ID):
// duplicate deliveries of the most recent message either wait for the
// in-flight handler's genuine reply (a resend racing a slow handler) or
// return the cached reply (a resend after a dropped reply). An older ID
// gets ErrSuperseded: the dedup state is one high-water mark, so a
// concurrent call whose first leg was lost while a newer call went through
// is refused rather than acked as done without running. A message from a
// higher sender incarnation resets the sender's dedup state — a restarted
// sender restarts its ID sequence and must not be blackholed by the dead
// incarnation's high-water mark — while a lower incarnation is a fenced
// zombie and gets ErrStaleIncarnation. Handlers therefore see each logical
// message once.
func (e *Endpoint) handle(msg Message) ([]byte, error) {
	e.mu.Lock()
	select {
	case <-e.closed:
		e.mu.Unlock()
		return nil, ErrClosed
	default:
	}
	cur := e.peerInc[msg.From]
	if msg.Inc < cur {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %s sent incarnation %d, current is %d",
			ErrStaleIncarnation, msg.From, msg.Inc, cur)
	}
	if msg.Inc > cur {
		e.peerInc[msg.From] = msg.Inc
		delete(e.seen, msg.From)
		delete(e.lastReply, msg.From)
		// An in-flight handler from the dead incarnation may still finish;
		// its completion guard below sees the incarnation moved on and
		// skips the cache.
		delete(e.inflight, msg.From)
	}
	last := e.seen[msg.From]
	if msg.ID <= last {
		if msg.ID == last {
			if inf := e.inflight[msg.From]; inf != nil && inf.id == msg.ID && inf.inc == msg.Inc {
				e.mu.Unlock()
				select {
				case <-inf.done:
					return inf.r.payload, inf.r.err
				case <-e.closed:
					return nil, ErrClosed
				}
			}
			cached := e.lastReply[msg.From]
			e.mu.Unlock()
			return cached.payload, cached.err
		}
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %s sent id %d, already at %d", ErrSuperseded, msg.From, msg.ID, last)
	}
	e.seen[msg.From] = msg.ID
	inf := &inflightCall{id: msg.ID, inc: msg.Inc, done: make(chan struct{})}
	e.inflight[msg.From] = inf
	h := e.handler
	e.mu.Unlock()
	var payload []byte
	var err error
	if h != nil {
		// The handler span is a remote child of the sender's call span. Its
		// context replaces msg.Trace only when a span was actually opened,
		// so an untraced bus still forwards the sender's causality to
		// handlers that trace on their own recorder.
		hspan := telemetry.StartRemote(e.bus.tr, "transport.handle", msg.Trace)
		if hspan != nil {
			hspan.SetProc(e.name)
			hspan.Annotate("from", msg.From)
			hspan.Annotate("kind", msg.Kind)
			msg.Trace = hspan.Context()
		}
		payload, err = h(msg)
		if err != nil {
			hspan.Annotate("error", err.Error())
		}
		hspan.End()
	}
	e.mu.Lock()
	inf.r = reply{payload: payload, err: err}
	close(inf.done)
	if e.inflight[msg.From] == inf {
		delete(e.inflight, msg.From)
	}
	if e.peerInc[msg.From] == msg.Inc && e.seen[msg.From] == msg.ID {
		e.lastReply[msg.From] = reply{payload: payload, err: err}
	}
	e.mu.Unlock()
	return payload, err
}
