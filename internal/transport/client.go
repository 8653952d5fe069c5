package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/telemetry"
)

// Client is the TCP call path: one long-lived connection to one server,
// dialed on first use and carrying many concurrent requests matched to
// responses by request ID. No TCP handshake sits on the steady-state call,
// and because the server runs each request on its own goroutine, one slow
// handler blocks no other caller on the connection.
//
// Restart transparency comes from invalidation: when the connection dies
// (server restart, network fault), its reader fails every in-flight call
// on it with a retryable transport error and drops it, and the next call
// dials fresh. CallRetry therefore rides out a server restart.
type Client struct {
	addr string

	// mu guards cc and closed. It is held across a dial, so concurrent
	// callers share one dial instead of racing their own.
	mu       sync.Mutex
	cc       *clientConn
	closed   bool
	closedCh chan struct{}
	wg       sync.WaitGroup // connection reader goroutines

	mCalls      *telemetry.Counter
	mDials      *telemetry.Counter
	mConnErrors *telemetry.Counter
}

// ErrCallTimeout reports a call that saw no response within its timeout.
// It is retryable: the connection is left alone (a slow handler is not a
// dead server), and the late response — if it ever arrives — is discarded
// by the demultiplexer.
var ErrCallTimeout = errors.New("transport: call timed out")

// ClientConfig configures a Client. The zero value is a working client.
type ClientConfig struct {
	// Metrics receives transport_client_calls_total,
	// transport_client_dials_total and transport_client_conn_errors_total;
	// nil disables them at zero cost.
	Metrics *telemetry.Registry
}

// clientConn is one connection: a write mutex serializing frame writes, a
// pending table keyed by request ID, and a reader goroutine
// (Client.readLoop) demultiplexing responses.
type clientConn struct {
	conn net.Conn
	wmu  sync.Mutex

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

// NewClient creates a client for the server at addr. The connection is
// dialed on first use, so creating a client is free and never fails.
func NewClient(addr string, cfg ClientConfig) *Client {
	return &Client{
		addr:        addr,
		closedCh:    make(chan struct{}),
		mCalls:      cfg.Metrics.Counter("transport_client_calls_total"),
		mDials:      cfg.Metrics.Counter("transport_client_dials_total"),
		mConnErrors: cfg.Metrics.Counter("transport_client_conn_errors_total"),
	}
}

// Close tears down the connection, resolves all in-flight calls with
// ErrClosed, and waits for the reader goroutine to exit — after Close
// returns the client owns no goroutines. Closing twice is safe.
func (c *Client) Close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.closedCh)
	}
	cc := c.cc
	c.cc = nil
	c.mu.Unlock()
	if cc != nil {
		cc.fail(ErrClosed)
	}
	c.wg.Wait()
}

// grab returns the live connection, dialing one if there is none or it
// broke.
func (c *Client) grab(ctx context.Context, timeout time.Duration) (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if cc := c.cc; cc != nil && !cc.isBroken() {
		return cc, nil
	}
	dialer := net.Dialer{Timeout: timeout}
	conn, err := dialer.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", c.addr, err)
	}
	cc := &clientConn{conn: conn, pending: make(map[uint64]chan callResult)}
	c.cc = cc
	c.wg.Add(1)
	c.mDials.Inc()
	go c.readLoop(cc)
	return cc, nil
}

// readLoop demultiplexes response frames to pending calls until the
// connection dies, then fails every in-flight call with a retryable
// transport error and drops the connection.
func (c *Client) readLoop(cc *clientConn) {
	defer c.wg.Done()
	bufp := getFrameBuf()
	defer putFrameBuf(bufp)
	for {
		body, err := readFrame(cc.conn, bufp)
		if err != nil {
			c.connLost(cc, fmt.Errorf("transport: connection lost: %w", err))
			return
		}
		id, code, errMsg, payload, err := decodeResponse(body)
		if err != nil {
			c.connLost(cc, fmt.Errorf("transport: connection corrupt: %w", err))
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
// err, and drops it so the next call dials fresh.
func (c *Client) connLost(cc *clientConn, err error) {
	c.mConnErrors.Inc()
	cc.fail(err)
	c.mu.Lock()
	if c.cc == cc {
		c.cc = nil
	}
	c.mu.Unlock()
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

// register allocates a request ID and a result channel on the connection.
func (cc *clientConn) register() (uint64, chan callResult, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.broken {
		return 0, nil, cc.brokenErr
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

// Call performs one multiplexed request/reply round trip. The timeout
// (DefaultCallTimeout when <= 0) bounds the whole call; cancelling ctx aborts it immediately. Errors follow the package
// retry contract: transport-level failures (dial, lost connection,
// timeout) are Retryable, handler-level errors arrive as *HandlerError
// with sentinel identity intact and are terminal.
func (c *Client) Call(ctx context.Context, kind string, payload []byte, timeout time.Duration) ([]byte, error) {
	if timeout <= 0 {
		timeout = DefaultCallTimeout
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
	cc, err := c.grab(ctx, timeout)
	if err != nil {
		return nil, err
	}
	id, ch, err := cc.register()
	if err != nil {
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
		c.connLost(cc, err)
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

// retryDelays is CallRetry's backoff: five attempts, the delay doubling
// from 10 ms, which rides out a server restart on the same address.
var retryDelays = [...]time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond}

// CallRetry is Call with resend for transport-level failures: it tries up
// to len(retryDelays)+1 times, sleeping retryDelays between attempts, so a
// connection broken by a server restart redials without hammering the
// address. A transport failure does not say whether the handler ran, so a
// resend may run it again: delivery is at-least-once, as on the bus, and
// the handler's own idempotence absorbs the repeat. Handler-level errors
// (Retryable reports false) return at once: the handler ran and gave its
// verdict. Cancelling ctx aborts both in-flight calls and backoff sleeps.
func (c *Client) CallRetry(ctx context.Context, kind string, payload []byte, timeout time.Duration) ([]byte, error) {
	var lastErr error
	for i := 0; i <= len(retryDelays); i++ {
		if i > 0 {
			if err := (clock.Wall{}).Sleep(ctx, retryDelays[i-1]); err != nil {
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
	return nil, fmt.Errorf("transport: %d attempts failed: %w", len(retryDelays)+1, lastErr)
}
