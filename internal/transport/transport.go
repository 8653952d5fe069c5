// Package transport provides the reliable messaging layer between the
// application master and workers — the stand-in for the paper's ZeroMQ
// sockets (Section V-D). It has two wires behind one Handler type.
//
// The in-process Bus carries the job's own traffic. Senders resend on ack
// timeout, and the first reply to arrive completes the call. The TCP Server
// (rpc.go) and the Client (client.go) carry the same request/reply protocol
// across a process boundary over one multiplexed connection, and
// Client.CallRetry resends on transport errors. Both wires are therefore
// at-least-once: a handler may run more than once for one call (a dropped
// reply, a resend overtaking a slow handler, a delayed duplicate), so
// handlers whose effects must not repeat make them idempotent themselves,
// as the AM does (internal/coord). A pluggable fault hook on the bus
// (partition / drop / straggler injection, see internal/chaos) is the one
// way to inject failures.
package transport

import (
	"context"
	"errors"
	"fmt"
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
// routes them at the receiver. ID is the TCP wire's request ID, unique per
// connection, which matches a response frame to its pending call; the bus
// needs none, as each delivery carries its call's reply channel, and leaves
// it 0.
type Message struct {
	ID      uint64
	From    string
	To      string
	Kind    string
	Payload []byte
	// Trace carries the sender's span identity so the receiver's handler
	// span joins the same causal tree. The zero value means "untraced" and
	// costs nothing to propagate.
	Trace telemetry.TraceContext
}

// Fate is a fault hook's verdict on one delivery leg.
type Fate struct {
	// Drop loses this leg; the sender's resend protocol recovers (or times
	// out).
	Drop bool
	// Delay adds straggler latency to this leg.
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

// BusConfig controls the bus's resend protocol, time source and
// instrumentation. Faults are injected with Bus.SetFaultHook.
type BusConfig struct {
	// AckTimeout is how long a sender waits for an ack before resending.
	AckTimeout time.Duration
	// MaxRetries bounds resends before Send fails with ErrTimeout.
	MaxRetries int
	// Clock is the time source for ack timeouts and fault-hook delays.
	// Nil selects the wall clock; tests inject a clock.Sim so the whole
	// resend protocol runs on instant virtual time.
	Clock clock.Clock
	// Tracer records a span per Call with resend events; nil disables
	// tracing at zero cost.
	Tracer *telemetry.Recorder
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
	tr  *telemetry.Recorder

	// Instruments are resolved once at construction; all are nil-safe, so
	// an uninstrumented bus pays nothing on the call path.
	mCalls      *telemetry.Counter
	mResends    *telemetry.Counter
	mDrops      *telemetry.Counter
	mCallErrors *telemetry.Counter
	mLatency    *telemetry.Histogram

	// ctx is the bus lifecycle: Close cancels it, aborting in-flight
	// delay sleeps and pending calls. wg tracks delivery goroutines so
	// Close can prove they all exited.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	endpoints map[string]*Endpoint
	hook      FaultHook
}

// NewBus constructs a bus. Invalid config values are normalized.
func NewBus(cfg BusConfig) *Bus {
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = DefaultAckTimeout
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Bus{
		cfg:         cfg,
		clk:         cfg.Clock,
		tr:          cfg.Tracer,
		mCalls:      cfg.Metrics.Counter("transport_calls_total"),
		mResends:    cfg.Metrics.Counter("transport_resends_total"),
		mDrops:      cfg.Metrics.Counter("transport_drops_total"),
		mCallErrors: cfg.Metrics.Counter("transport_call_errors_total"),
		mLatency:    cfg.Metrics.Histogram("transport_call_seconds"),
		ctx:         ctx,
		cancel:      cancel,
		endpoints:   make(map[string]*Endpoint),
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
	ep := &Endpoint{
		name:    name,
		bus:     b,
		handler: h,
		closed:  make(chan struct{}),
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

// Endpoint is a named participant on a bus.
type Endpoint struct {
	name string
	bus  *Bus

	mu      sync.Mutex
	handler Handler

	closeOnce sync.Once
	closed    chan struct{}
}

// Name returns the endpoint's bus name.
func (e *Endpoint) Name() string { return e.name }

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

// Call sends a message and waits for the receiver's reply, resending on
// timeout. It is the at-least-once RPC used for AM<->worker coordination.
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
		From:    e.name,
		To:      to,
		Kind:    kind,
		Payload: payload,
		Trace:   span.Context(),
	}
	// Every delivery of this call, resends included, offers its reply here;
	// the first to arrive completes the call and later ones are dropped.
	ch := make(chan reply, 1)

	timer := e.bus.clk.NewTimer(e.bus.cfg.AckTimeout)
	defer timer.Stop()
	for attempt := 0; attempt < e.bus.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			// Only reached after draining the previous expiry, so Reset is
			// safe under the time.Timer contract.
			timer.Reset(e.bus.cfg.AckTimeout)
		}
		e.deliver(msg, ch)
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
	return nil, fmt.Errorf("%w (to=%s kind=%s)", ErrTimeout, to, kind)
}

// deliver attempts one delivery of msg (possibly dropped or delayed by the
// fault hook). The receiver's handler runs on a fresh
// bus-tracked goroutine; its reply is offered to ch, the pending Call's, also
// subject to drops and fault injection.
func (e *Endpoint) deliver(msg Message, ch chan<- reply) {
	fate := e.bus.fate(msg)
	if fate.Drop {
		return
	}
	dst, ok := e.bus.lookup(msg.To)
	if !ok {
		// Unknown destination: reply with an error so Call fails fast
		// instead of burning retries.
		offer(ch, reply{err: fmt.Errorf("%w: %s", ErrNoEndpoint, msg.To)})
		return
	}
	e.bus.wg.Add(1)
	go func() {
		defer e.bus.wg.Done()
		if fate.Delay > 0 {
			if e.bus.clk.Sleep(e.bus.ctx, fate.Delay) != nil {
				return // bus closed mid-flight
			}
		}
		payload, err := dst.handle(msg)
		back := msg
		back.From, back.To = msg.To, msg.From
		backFate := e.bus.fate(back)
		if backFate.Drop {
			return // the reply got lost; sender will resend
		}
		if backFate.Delay > 0 {
			if e.bus.clk.Sleep(e.bus.ctx, backFate.Delay) != nil {
				return
			}
		}
		offer(ch, reply{payload: payload, err: err})
	}()
}

// offer hands r to a call's reply channel without blocking: the channel
// holds one reply, so the first wins and later ones are dropped.
func offer(ch chan<- reply, r reply) {
	select {
	case ch <- r:
	default: // an earlier delivery's reply is already there
	}
}

// handle runs the endpoint handler for one delivery of msg; every delivery
// runs it, duplicates included.
func (e *Endpoint) handle(msg Message) ([]byte, error) {
	select {
	case <-e.closed:
		return nil, ErrClosed
	default:
	}
	e.mu.Lock()
	h := e.handler
	e.mu.Unlock()
	if h == nil {
		return nil, nil
	}
	// The handler span is a remote child of the sender's call span. Its
	// context replaces msg.Trace only when a span was actually opened, so
	// an untraced bus still forwards the sender's causality to handlers
	// that trace on their own recorder.
	hspan := e.bus.tr.StartRemoteSpan("transport.handle", msg.Trace)
	if hspan != nil {
		hspan.SetProc(e.name)
		hspan.Annotate("from", msg.From)
		hspan.Annotate("kind", msg.Kind)
		msg.Trace = hspan.Context()
	}
	payload, err := h(msg)
	if err != nil {
		hspan.Annotate("error", err.Error())
	}
	hspan.End()
	return payload, err
}
