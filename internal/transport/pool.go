package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/telemetry"
)

// Client is the TCP call path: a fixed set of long-lived connections to
// one server, each carrying many concurrent requests matched to responses
// by per-connection request IDs. No TCP handshake sits on the steady-state
// call; BenchmarkPooledCall measures the path at 1, 64 and 256
// concurrent callers.
//
// Restart transparency comes from pool invalidation: when a connection
// dies (server restart, network fault), its reader fails every in-flight
// call on it with a retryable transport error and removes it from the
// pool, and the next call on that slot dials fresh. CallRetry therefore
// rides out a server restart.
type Client struct {
	addr        string
	timeout     time.Duration
	maxInFlight int
	slots       []*connSlot
	next        atomic.Uint64

	mu       sync.Mutex
	closed   bool
	closedCh chan struct{}
	wg       sync.WaitGroup // connection reader goroutines

	mCalls        *telemetry.Counter
	mDials        *telemetry.Counter
	mConnErrors   *telemetry.Counter
	mBackpressure *telemetry.Counter
}

// DefaultClientConns is the pool size of an unconfigured Client.
const DefaultClientConns = 4

// ErrCallTimeout reports a pooled call that saw no response within its
// timeout. It is retryable: the connection is left alone (a slow handler
// is not a dead server), and the late response — if it ever arrives — is
// discarded by the demultiplexer.
var ErrCallTimeout = errors.New("transport: call timed out")

// ErrBackpressure reports a call refused because its pooled connection
// already carries ClientConfig.MaxInFlight outstanding requests. The
// connection is healthy — the caller is simply outrunning the server — so
// the error is retryable and CallRetry converts it into clock-driven
// backoff instead of letting an unbounded pending table absorb the flood.
var ErrBackpressure = errors.New("transport: too many in-flight calls on connection")

// ClientConfig configures a Client. The zero value selects the defaults.
type ClientConfig struct {
	// Conns is the number of pooled connections (DefaultClientConns when
	// unset). Connections are dialed lazily and selected round-robin.
	Conns int
	// Timeout bounds each call when the Call's own timeout is unset.
	Timeout time.Duration
	// MaxInFlight caps the outstanding requests per pooled connection;
	// a call arriving at a full connection fails fast with the retryable
	// ErrBackpressure instead of growing the pending table without bound.
	// 0 (the default) means unlimited.
	MaxInFlight int
	// Metrics receives transport_client_calls_total,
	// transport_client_dials_total, transport_client_conn_errors_total and
	// transport_client_backpressure_total; nil disables them at zero cost.
	Metrics *telemetry.Registry
}

// connSlot is one pool position. Its mutex serializes dialing, so a dead
// connection is re-established exactly once however many callers hit the
// slot; calls on other slots proceed undisturbed.
type connSlot struct {
	mu sync.Mutex
	cc *clientConn
}

// clientConn is one pooled connection: a write mutex serializing frame
// writes, a pending table keyed by request ID, and a reader goroutine
// (Client.readLoop) demultiplexing responses.
type clientConn struct {
	conn net.Conn
	wmu  sync.Mutex

	maxInFlight int // immutable after dial; 0 = unlimited

	mu        sync.Mutex
	pending   map[uint64]chan callResult
	nextID    uint64
	broken    bool
	brokenErr error
}

type callResult struct {
	payload []byte
	err     error
}

// NewClient creates a pooled client for the server at addr. Connections
// are dialed on first use, so creating a client is free and never fails.
func NewClient(addr string, cfg ClientConfig) *Client {
	if cfg.Conns <= 0 {
		cfg.Conns = DefaultClientConns
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultCallTimeout
	}
	slots := make([]*connSlot, cfg.Conns)
	for i := range slots {
		slots[i] = &connSlot{}
	}
	return &Client{
		addr:          addr,
		timeout:       cfg.Timeout,
		maxInFlight:   cfg.MaxInFlight,
		slots:         slots,
		closedCh:      make(chan struct{}),
		mCalls:        cfg.Metrics.Counter("transport_client_calls_total"),
		mDials:        cfg.Metrics.Counter("transport_client_dials_total"),
		mConnErrors:   cfg.Metrics.Counter("transport_client_conn_errors_total"),
		mBackpressure: cfg.Metrics.Counter("transport_client_backpressure_total"),
	}
}

// Addr returns the server address the client pools connections to.
func (c *Client) Addr() string { return c.addr }

// Close tears down every pooled connection, resolves all in-flight calls
// with ErrClosed, and waits for the reader goroutines to exit — after
// Close returns the client owns no goroutines. Closing twice is safe.
func (c *Client) Close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.closedCh)
	}
	c.mu.Unlock()
	for _, slot := range c.slots {
		slot.mu.Lock()
		cc := slot.cc
		slot.cc = nil
		slot.mu.Unlock()
		if cc != nil {
			cc.fail(ErrClosed)
		}
	}
	c.wg.Wait()
}

// grab returns a live connection for slot, dialing one if the slot is
// empty or its connection broke. Dialing happens under the slot mutex so
// concurrent callers share the dial instead of racing their own.
func (c *Client) grab(ctx context.Context, slot *connSlot, timeout time.Duration) (*clientConn, error) {
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if cc := slot.cc; cc != nil && !cc.isBroken() {
		return cc, nil
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	dialer := net.Dialer{Timeout: timeout}
	conn, err := dialer.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", c.addr, err)
	}
	cc := &clientConn{conn: conn, pending: make(map[uint64]chan callResult), maxInFlight: c.maxInFlight}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		_ = conn.Close()
		return nil, ErrClosed
	}
	c.wg.Add(1)
	c.mu.Unlock()
	c.mDials.Inc()
	go c.readLoop(slot, cc)
	slot.cc = cc
	return cc, nil
}

// readLoop demultiplexes response frames to pending calls until the
// connection dies, then fails every in-flight call with a retryable
// transport error and invalidates the slot.
func (c *Client) readLoop(slot *connSlot, cc *clientConn) {
	defer c.wg.Done()
	bufp := getFrameBuf()
	defer putFrameBuf(bufp)
	for {
		body, err := readFrame(cc.conn, bufp)
		if err != nil {
			c.connLost(slot, cc, fmt.Errorf("transport: connection lost: %w", err))
			return
		}
		id, code, errMsg, payload, err := decodeResponse(body)
		if err != nil {
			c.connLost(slot, cc, fmt.Errorf("transport: connection corrupt: %w", err))
			return
		}
		cc.mu.Lock()
		ch, ok := cc.pending[id]
		if ok {
			delete(cc.pending, id)
		}
		cc.mu.Unlock()
		if !ok {
			continue // the caller timed out or was cancelled; drop the late reply
		}
		res := callResult{err: responseError(code, errMsg)}
		if res.err == nil {
			// The payload aliases the pooled frame buffer; copy once into
			// storage the caller owns indefinitely.
			res.payload = make([]byte, len(payload))
			copy(res.payload, payload)
		}
		ch <- res // cap-1 buffered and this is the only sender after the delete
	}
}

// connLost marks the connection broken, resolves its in-flight calls with
// err, and empties the slot so the next call dials fresh.
func (c *Client) connLost(slot *connSlot, cc *clientConn, err error) {
	c.mConnErrors.Inc()
	cc.fail(err)
	slot.mu.Lock()
	if slot.cc == cc {
		slot.cc = nil
	}
	slot.mu.Unlock()
}

func (cc *clientConn) isBroken() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.broken
}

// fail marks the connection broken with err, closes it, and resolves every
// pending call with err. Safe to call more than once; the first error
// wins.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if !cc.broken {
		cc.broken = true
		cc.brokenErr = err
	}
	err = cc.brokenErr
	drained := make([]chan callResult, 0, len(cc.pending))
	for id, ch := range cc.pending {
		delete(cc.pending, id)
		drained = append(drained, ch)
	}
	cc.mu.Unlock()
	_ = cc.conn.Close()
	for _, ch := range drained {
		ch <- callResult{err: err}
	}
}

// register allocates a request ID and a result channel on the connection,
// refusing with ErrBackpressure when the in-flight window is full.
func (cc *clientConn) register() (uint64, chan callResult, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.broken {
		return 0, nil, cc.brokenErr
	}
	if cc.maxInFlight > 0 && len(cc.pending) >= cc.maxInFlight {
		return 0, nil, fmt.Errorf("%w (window %d)", ErrBackpressure, cc.maxInFlight)
	}
	cc.nextID++
	ch := make(chan callResult, 1)
	cc.pending[cc.nextID] = ch
	return cc.nextID, ch, nil
}

// unregister abandons a pending call (timeout or cancellation).
func (cc *clientConn) unregister(id uint64) {
	cc.mu.Lock()
	delete(cc.pending, id)
	cc.mu.Unlock()
}

// Call performs one multiplexed request/reply round trip on a pooled
// connection. The timeout (the client default when <= 0) bounds the whole
// call; cancelling ctx aborts it immediately. Errors follow the package
// retry contract: transport-level failures (dial, lost connection,
// timeout) are Retryable, handler-level errors arrive as *HandlerError
// with sentinel identity intact and are terminal.
func (c *Client) Call(ctx context.Context, kind string, payload []byte, timeout time.Duration) ([]byte, error) {
	if timeout <= 0 {
		timeout = c.timeout
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case <-c.closedCh:
		return nil, ErrClosed
	default:
	}
	c.mCalls.Inc()
	slot := c.slots[c.next.Add(1)%uint64(len(c.slots))]
	cc, err := c.grab(ctx, slot, timeout)
	if err != nil {
		return nil, err
	}
	id, ch, err := cc.register()
	if err != nil {
		if errors.Is(err, ErrBackpressure) {
			c.mBackpressure.Inc()
		}
		return nil, err
	}
	reqp := getFrameBuf()
	frame, err := encodeRequest((*reqp)[:0], id, kind, payload,
		telemetry.SpanFromContext(ctx).Context())
	if err != nil {
		putFrameBuf(reqp)
		cc.unregister(id)
		return nil, err
	}
	*reqp = frame
	// Bound the write too: a peer that stops draining must not wedge the
	// caller past its timeout. The deadline is per-connection, so
	// concurrent callers refresh it to roughly the latest deadline — safe,
	// because every writer's own timer still bounds its wait below.
	_ = cc.conn.SetWriteDeadline(clock.Wall{}.Now().Add(timeout))
	err = writeFrame(cc.conn, &cc.wmu, frame)
	putFrameBuf(reqp)
	if err != nil {
		cc.unregister(id)
		c.connLost(slot, cc, err)
		return nil, err
	}
	timer := clock.Wall{}.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res.payload, res.err
	case <-timer.C():
		cc.unregister(id)
		return nil, fmt.Errorf("%w: kind %s after %v", ErrCallTimeout, kind, timeout)
	case <-ctx.Done():
		cc.unregister(id)
		return nil, ctx.Err()
	case <-c.closedCh:
		cc.unregister(id)
		return nil, ErrClosed
	}
}

// CallRetry is Call with exponential-backoff resend for transport-level
// failures: it tries up to policy.Attempts times, sleeping the policy's
// jittered schedule between attempts, so a pool invalidated by a server
// restart redials without hammering the address. Handler-level errors
// (Retryable reports false) return at once — a handler that ran and failed
// must not be re-executed by the transport, because the TCP path has no
// incarnation dedup to absorb the repeat. Cancelling ctx aborts both
// in-flight calls and backoff sleeps.
func (c *Client) CallRetry(ctx context.Context, kind string, payload []byte, timeout time.Duration, policy RetryPolicy) ([]byte, error) {
	policy = policy.normalized()
	delays := policy.Schedule()
	var lastErr error
	for i := 0; i < policy.Attempts; i++ {
		if i > 0 {
			if err := policy.Clock.Sleep(ctx, delays[i-1]); err != nil {
				return nil, fmt.Errorf("transport: retry cancelled after %d attempts: %w", i, err)
			}
		}
		out, err := c.Call(ctx, kind, payload, timeout)
		if err == nil {
			return out, nil
		}
		if ctx.Err() != nil || !Retryable(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("transport: %d attempts failed: %w", policy.Attempts, lastErr)
}
