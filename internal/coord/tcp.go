package coord

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"github.com/elan-sys/elan/internal/transport"
)

// This file exposes the AM service over real TCP, demonstrating that the
// coordination protocol is transport-independent: the same message kinds
// (adjust.request, worker.report, worker.coord, am.state) flow over
// length-prefixed binary frames on pooled, multiplexed connections instead
// of the in-process bus. A scheduler outside the training job's process —
// the deployment the paper describes — talks to the AM this way. Pool
// invalidation plus the retry policy's backoff makes AM restarts
// transparent (the ZeroMQ property), and combined with the AM state
// machine's persistence a restarted AM resumes where it stopped.

// TCPService serves an AM over TCP.
type TCPService struct {
	am  *AM
	srv *transport.Server
	hb  *HeartbeatMonitor
	// Addr is the bound address after Start.
	Addr string
}

// NewTCPService starts serving am on addr ("127.0.0.1:0" for ephemeral).
func NewTCPService(am *AM, addr string) (*TCPService, error) {
	return NewTCPServiceCtx(context.Background(), am, addr)
}

// NewTCPServiceCtx is NewTCPService under a parent lifecycle context:
// cancelling ctx shuts the server down, tearing open connections.
func NewTCPServiceCtx(ctx context.Context, am *AM, addr string) (*TCPService, error) {
	return NewTCPServiceWith(ctx, am, addr, nil)
}

// NewTCPServiceWith is NewTCPServiceCtx for a service that fans batched
// worker.beats frames into hb. The monitor is an argument and not a setter
// for NewServiceWith's reason: Listen is what starts serving.
func NewTCPServiceWith(ctx context.Context, am *AM, addr string, hb *HeartbeatMonitor) (*TCPService, error) {
	if am == nil {
		return nil, fmt.Errorf("coord: nil AM")
	}
	s := &TCPService{am: am, hb: hb}
	s.srv = transport.NewServer(s.handle)
	bound, err := s.srv.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("coord: tcp service: %w", err)
	}
	s.Addr = bound
	if ctx != nil && ctx.Done() != nil {
		context.AfterFunc(ctx, s.Close)
	}
	return s, nil
}

// Close stops the server.
func (s *TCPService) Close() { s.srv.Close() }

func (s *TCPService) handle(m transport.Message) ([]byte, error) {
	switch m.Kind {
	case KindAdjustRequest:
		var req AdjustRequestMsg
		if err := json.Unmarshal(m.Payload, &req); err != nil {
			return nil, fmt.Errorf("coord: bad adjust.request: %w", err)
		}
		if err := s.am.RequestAdjustment(req.Kind, req.Add, req.Remove); err != nil {
			return nil, err
		}
		return []byte(`{}`), nil
	case KindWorkerReport:
		var req ReportMsg
		if err := json.Unmarshal(m.Payload, &req); err != nil {
			return nil, fmt.Errorf("coord: bad worker.report: %w", err)
		}
		if err := s.am.ReportReady(req.Worker); err != nil {
			return nil, err
		}
		return []byte(`{}`), nil
	case KindCoordinate:
		adj, ok, err := s.am.Coordinate()
		if err != nil {
			return nil, err
		}
		return json.Marshal(CoordReplyMsg{HasAdjustment: ok, Adjustment: adj})
	case KindHeartbeats:
		return handleBeats(s.hb, m.Payload)
	case KindAMState:
		return json.Marshal(StateReplyMsg{
			State:   s.am.State(),
			Seq:     s.am.Seq(),
			Pending: s.am.PendingWorkers(),
		})
	default:
		return nil, fmt.Errorf("coord: unknown message kind %q", m.Kind)
	}
}

// TCPClient talks to a TCPService over a pooled, multiplexed
// transport.Client: connections are dialed lazily, reused across calls,
// and carry concurrent requests. AM restarts are still transparent — a
// dead connection fails its in-flight calls with retryable transport
// errors, the pool invalidates it, and the retry policy's exponential
// backoff redials the new incarnation. Handler-level errors (including
// the AM's own state-machine rejections) return immediately without
// burning the retry budget, so non-idempotent service calls execute at
// most once per TCPClient call. The client's parent context bounds every
// call, giving reconnect loops a hard deadline. Call Close when done to
// reclaim the pooled connections.
type TCPClient struct {
	ctx     context.Context
	client  *transport.Client
	timeout time.Duration
	policy  transport.RetryPolicy
}

// NewTCPClient creates a client for the AM at addr with the default
// timeout and reconnect policy.
func NewTCPClient(addr string) *TCPClient {
	return NewTCPClientCtx(context.Background(), addr, 0, transport.RetryPolicy{})
}

// NewTCPClientCtx creates a client whose calls run under ctx with the
// given per-call timeout and retry policy (zero values select defaults).
func NewTCPClientCtx(ctx context.Context, addr string, timeout time.Duration, policy transport.RetryPolicy) *TCPClient {
	if ctx == nil {
		ctx = context.Background()
	}
	if timeout <= 0 {
		timeout = transport.DefaultCallTimeout
	}
	if policy.Attempts <= 0 {
		policy.Attempts = 5
	}
	c := &TCPClient{
		ctx:     ctx,
		client:  transport.NewClient(addr, transport.ClientConfig{Timeout: timeout}),
		timeout: timeout,
		policy:  policy,
	}
	if ctx.Done() != nil {
		context.AfterFunc(ctx, c.Close)
	}
	return c
}

// Close tears down the pooled connections and resolves in-flight calls
// with transport.ErrClosed. Closing twice is safe.
func (c *TCPClient) Close() { c.client.Close() }

func (c *TCPClient) call(kind string, payload []byte) ([]byte, error) {
	return c.client.CallRetry(c.ctx, kind, payload, c.timeout, c.policy)
}

// RequestAdjustment invokes the service API over TCP.
func (c *TCPClient) RequestAdjustment(kind Kind, add, remove []string) error {
	payload, err := json.Marshal(AdjustRequestMsg{Kind: kind, Add: add, Remove: remove})
	if err != nil {
		return err
	}
	_, err = c.call(KindAdjustRequest, payload)
	return err
}

// ReportReady reports a worker as started and initialized.
func (c *TCPClient) ReportReady(worker string) error {
	payload, err := json.Marshal(ReportMsg{Worker: worker})
	if err != nil {
		return err
	}
	_, err = c.call(KindWorkerReport, payload)
	return err
}

// Beats ships one batched liveness frame covering workers.
func (c *TCPClient) Beats(workers []string) error {
	payload, err := json.Marshal(BeatsMsg{Workers: workers})
	if err != nil {
		return err
	}
	_, err = c.call(KindHeartbeats, payload)
	return err
}

// Coordinate polls for a pending adjustment.
func (c *TCPClient) Coordinate() (Adjustment, bool, error) {
	out, err := c.call(KindCoordinate, nil)
	if err != nil {
		return Adjustment{}, false, err
	}
	var reply CoordReplyMsg
	if err := json.Unmarshal(out, &reply); err != nil {
		return Adjustment{}, false, fmt.Errorf("coord: bad coord reply: %w", err)
	}
	return reply.Adjustment, reply.HasAdjustment, nil
}

// AMState fetches the AM's state.
func (c *TCPClient) AMState() (StateReplyMsg, error) {
	out, err := c.call(KindAMState, nil)
	if err != nil {
		return StateReplyMsg{}, err
	}
	var reply StateReplyMsg
	if err := json.Unmarshal(out, &reply); err != nil {
		return StateReplyMsg{}, fmt.Errorf("coord: bad state reply: %w", err)
	}
	return reply, nil
}
