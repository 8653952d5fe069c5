package coord

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"

	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/transport"
)

// This file exposes the AM over the transport layer, giving the paper's
// Service API (Table III) a real message-passing implementation: the
// scheduler and workers interact with the AM only through messages, never
// shared memory. Message kinds:
//
//	adjust.request   scheduler -> AM    RequestAdjustment
//	worker.report    new worker -> AM   ReportReady
//	worker.coord     existing -> AM     Coordinate
//	am.state         anyone -> AM       State/Seq inspection
//
// One Service answers them and one Client sends them, on either wire: the
// in-process bus, with resend on ack timeout, for the job's own workers; or
// TCP, with retry on transport errors, for a scheduler outside the job's
// process — the deployment the paper describes. Both wires deliver at
// least once, and the AM's calls are idempotent in its persisted state
// (coord.go), so a repeated message finds its own effect, on a restarted AM
// too. Dropping a dead connection plus the retry backoff makes an AM
// restart on the same address transparent (the ZeroMQ property).

// Message kinds understood by the AM service.
const (
	KindAdjustRequest = "adjust.request"
	KindWorkerReport  = "worker.report"
	KindCoordinate    = "worker.coord"
	KindAMState       = "am.state"
)

// AdjustRequestMsg is the payload of adjust.request. After is the last
// adjustment the requester knows was handed out; the request opens After+1.
type AdjustRequestMsg struct {
	After  int64    `json:"after"`
	Kind   Kind     `json:"kind"`
	Add    []string `json:"add"`
	Remove []string `json:"remove"`
	// Trace is the requesting span's identity, persisted with the pending
	// adjustment so the eventual apply joins the requester's trace.
	Trace telemetry.TraceContext `json:"trace,omitempty"`
}

// ReportMsg is the payload of worker.report.
type ReportMsg struct {
	Worker string `json:"worker"`
}

// CoordMsg is the payload of worker.coord: the last adjustment the caller
// received.
type CoordMsg struct {
	After int64 `json:"after"`
}

// CoordReplyMsg is the reply to worker.coord.
type CoordReplyMsg struct {
	HasAdjustment bool       `json:"hasAdjustment"`
	Adjustment    Adjustment `json:"adjustment"`
}

// StateReplyMsg is the reply to am.state.
type StateReplyMsg struct {
	State   State    `json:"state"`
	Seq     int64    `json:"seq"`
	Pending []string `json:"pending"`
}

// Service binds an AM to one wire: a bus endpoint or a TCP server.
type Service struct {
	am *AM
	tr telemetry.Tracer
	// Addr is the bound address of a TCP service; empty on the bus.
	Addr string
	// close shuts the endpoint or server this service opened; stop
	// unregisters its lifecycle AfterFunc (nil when it has none).
	close func()
	stop  func() bool
}

func newService(am *AM, tr telemetry.Tracer) (*Service, error) {
	if am == nil {
		return nil, fmt.Errorf("coord: nil AM")
	}
	return &Service{am: am, tr: telemetry.OrNop(tr)}, nil
}

// NewService registers the AM at name on the bus and starts serving. The
// service lives until Close (or bus shutdown).
func NewService(am *AM, bus *transport.Bus, name string) (*Service, error) {
	return NewServiceCtx(context.Background(), am, bus, name)
}

// NewServiceCtx is NewService under a parent lifecycle context: when ctx
// is cancelled the service deregisters from the bus, so an AM torn down by
// its job's context stops answering automatically.
func NewServiceCtx(ctx context.Context, am *AM, bus *transport.Bus, name string) (*Service, error) {
	return NewServiceWith(ctx, am, bus, name, nil)
}

// NewServiceWith is NewServiceCtx for a service that opens a span on tr per
// AM operation (a remote child of the transport handler's span, which itself
// chains to the caller); tr may be nil. It is an argument and not a setter
// because registering the endpoint is what starts serving: a worker may be
// retrying a call against name already, and the first message handled must
// find the service whole.
func NewServiceWith(ctx context.Context, am *AM, bus *transport.Bus, name string, tr telemetry.Tracer) (*Service, error) {
	s, err := newService(am, tr)
	if err != nil {
		return nil, err
	}
	ep, err := bus.Endpoint(name, s.handle)
	if err != nil {
		return nil, fmt.Errorf("coord: register service: %w", err)
	}
	s.close = ep.Close
	if ctx != nil && ctx.Done() != nil {
		s.stop = context.AfterFunc(ctx, ep.Close)
	}
	return s, nil
}

// NewTCPService serves am on addr ("127.0.0.1:0" for an ephemeral port) to
// callers in other processes, with tr as in NewServiceWith. The server
// opens a transport.handle span per request on tr, labeled with the AM's
// store key, so the AM's spans join the caller's trace as they do on the
// bus.
func NewTCPService(am *AM, addr string, tr telemetry.Tracer) (*Service, error) {
	s, err := newService(am, tr)
	if err != nil {
		return nil, err
	}
	srv := transport.NewServer(s.handle)
	srv.SetTracer(s.tr, amKey(am.jobID))
	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("coord: tcp service: %w", err)
	}
	s.Addr, s.close = bound, srv.Close
	return s, nil
}

// Close stops serving. On the bus it takes the service's own endpoint off,
// failing in-flight calls with transport.ErrClosed, and leaves alone a
// successor registered under the same name since. Over TCP it shuts the
// server down, and callers see their connections drop. Closing twice is
// safe.
func (s *Service) Close() {
	if s.stop != nil {
		s.stop()
	}
	s.close()
}

func (s *Service) handle(m transport.Message) ([]byte, error) {
	switch m.Kind {
	case KindAdjustRequest:
		var req AdjustRequestMsg
		if err := json.Unmarshal(m.Payload, &req); err != nil {
			return nil, fmt.Errorf("coord: bad adjust.request: %w", err)
		}
		span := telemetry.StartRemote(s.tr, "coord.adjust_request", m.Trace)
		span.Annotate("kind", req.Kind.String())
		// The trace stored with the pending adjustment is the original
		// requester's when it sent one, else this service span's, so
		// apply-side spans always have the deepest available anchor.
		tc := req.Trace
		if !tc.Valid() {
			tc = span.Context()
		}
		err := s.am.RequestAdjustmentTraced(req.After, req.Kind, req.Add, req.Remove, tc)
		if err != nil {
			span.Annotate("error", err.Error())
		}
		span.End()
		if err != nil {
			return nil, err
		}
		return []byte(`{}`), nil
	case KindWorkerReport:
		var req ReportMsg
		if err := json.Unmarshal(m.Payload, &req); err != nil {
			return nil, fmt.Errorf("coord: bad worker.report: %w", err)
		}
		span := telemetry.StartRemote(s.tr, "coord.report_ready", m.Trace)
		span.Annotate("worker", req.Worker)
		err := s.am.ReportReady(req.Worker)
		if err != nil {
			span.Annotate("error", err.Error())
		}
		span.End()
		if err != nil {
			return nil, err
		}
		return []byte(`{}`), nil
	case KindCoordinate:
		var req CoordMsg
		if err := json.Unmarshal(m.Payload, &req); err != nil {
			return nil, fmt.Errorf("coord: bad worker.coord: %w", err)
		}
		span := telemetry.StartRemote(s.tr, "coord.coordinate", m.Trace)
		adj, ok, err := s.am.Coordinate(req.After)
		if err != nil {
			span.Annotate("error", err.Error())
		}
		span.End()
		if err != nil {
			return nil, err
		}
		return json.Marshal(CoordReplyMsg{HasAdjustment: ok, Adjustment: adj})
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

// Client is the worker/scheduler side of the AM service, on either wire.
// Every call runs under the client's parent context, so cancelling it
// aborts in-flight resend loops.
type Client struct {
	ctx   context.Context
	call  func(ctx context.Context, kind string, payload []byte) ([]byte, error)
	close func()
	// seq is the last adjustment this client received: the after of its
	// seq-free RequestAdjustment and Coordinate.
	seq atomic.Int64
}

// NewClient creates a client endpoint named name talking to the AM at
// amName on the same bus.
func NewClient(bus *transport.Bus, name, amName string) (*Client, error) {
	return NewClientCtx(context.Background(), bus, name, amName)
}

// NewClientCtx is NewClient with a parent context bounding every call the
// client makes.
func NewClientCtx(ctx context.Context, bus *transport.Bus, name, amName string) (*Client, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ep, err := bus.Endpoint(name, nil)
	if err != nil {
		return nil, fmt.Errorf("coord: client endpoint: %w", err)
	}
	call := func(ctx context.Context, kind string, payload []byte) ([]byte, error) {
		return ep.CallCtx(ctx, amName, kind, payload)
	}
	return &Client{ctx: ctx, call: call, close: ep.Close}, nil
}

// NewTCPClient creates a client for the AM served at addr. Its one
// connection is dialed lazily and carries concurrent calls. A dead
// connection fails its calls with retryable transport errors, and
// CallRetry's backoff redials a restarted AM. Errors the AM returned are
// not retried, and they keep their identity: errors.Is(err, ErrBusy) holds
// as it does on the bus. A retried call may reach the AM twice, which its
// idempotence absorbs.
func NewTCPClient(addr string) *Client {
	pc := transport.NewClient(addr, transport.ClientConfig{})
	call := func(ctx context.Context, kind string, payload []byte) ([]byte, error) {
		out, err := pc.CallRetry(ctx, kind, payload, transport.DefaultCallTimeout)
		return out, restoreSentinel(err)
	}
	return &Client{ctx: context.Background(), call: call, close: pc.Close}
}

// Close releases the client's wire — its bus endpoint, or its TCP
// connection — and in-flight calls fail with transport.ErrClosed. Closing
// twice is safe.
func (c *Client) Close() { c.close() }

// wireSentinels are the AM's errors that callers test with errors.Is. The
// bus hands them over as Go values; a TCP reply carries only the message,
// which starts with the sentinel's text.
var wireSentinels = []error{ErrBusy, ErrFenced, ErrUnknownWorker}

// sentinelError is an AM error off the TCP wire with its sentinel restored.
type sentinelError struct{ sentinel, err error }

func (e sentinelError) Error() string   { return e.err.Error() }
func (e sentinelError) Unwrap() []error { return []error{e.sentinel, e.err} }

// restoreSentinel gives a handler error from the TCP wire back the identity
// of the AM sentinel its message starts with.
func restoreSentinel(err error) error {
	if !transport.IsHandlerError(err) {
		return err
	}
	for _, s := range wireSentinels {
		if strings.HasPrefix(err.Error(), s.Error()) {
			return sentinelError{sentinel: s, err: err}
		}
	}
	return err
}

// RequestAdjustment calls the AM's service API, opening the adjustment
// after the last one this client received.
func (c *Client) RequestAdjustment(kind Kind, add, remove []string) error {
	return c.RequestAdjustmentTraced(c.ctx, c.seq.Load(), kind, add, remove, telemetry.TraceContext{})
}

// RequestAdjustmentTraced is RequestAdjustment under a caller context (which
// may carry the requesting span for the transport layer), opening the
// adjustment after adjustment after, and with an explicit trace context
// stored alongside the pending adjustment. A nil ctx selects the client's
// parent context.
func (c *Client) RequestAdjustmentTraced(ctx context.Context, after int64, kind Kind, add, remove []string, tc telemetry.TraceContext) error {
	payload, err := json.Marshal(AdjustRequestMsg{After: after, Kind: kind, Add: add, Remove: remove, Trace: tc})
	if err != nil {
		return err
	}
	_, err = c.call(c.callCtx(ctx), KindAdjustRequest, payload)
	return err
}

// ReportReady reports this client's worker as started and initialized.
func (c *Client) ReportReady(worker string) error {
	return c.ReportReadyCtx(c.ctx, worker)
}

// ReportReadyCtx is ReportReady under a caller context; a span carried in
// ctx makes the report's transport call part of its trace.
func (c *Client) ReportReadyCtx(ctx context.Context, worker string) error {
	payload, err := json.Marshal(ReportMsg{Worker: worker})
	if err != nil {
		return err
	}
	_, err = c.call(c.callCtx(ctx), KindWorkerReport, payload)
	return err
}

// Coordinate polls the AM for the adjustment after the last one this
// client received.
func (c *Client) Coordinate() (Adjustment, bool, error) {
	return c.CoordinateCtx(c.ctx, c.seq.Load())
}

// CoordinateCtx is Coordinate under a caller context, for the adjustment
// after adjustment after; a span carried in ctx makes the coordination
// round-trip part of its trace. An adjustment it returns becomes the
// client's last received.
func (c *Client) CoordinateCtx(ctx context.Context, after int64) (Adjustment, bool, error) {
	payload, err := json.Marshal(CoordMsg{After: after})
	if err != nil {
		return Adjustment{}, false, err
	}
	out, err := c.call(c.callCtx(ctx), KindCoordinate, payload)
	if err != nil {
		return Adjustment{}, false, err
	}
	var reply CoordReplyMsg
	if err := json.Unmarshal(out, &reply); err != nil {
		return Adjustment{}, false, fmt.Errorf("coord: bad coord reply: %w", err)
	}
	if reply.HasAdjustment {
		c.seq.Store(reply.Adjustment.Seq)
	}
	return reply.Adjustment, reply.HasAdjustment, nil
}

func (c *Client) callCtx(ctx context.Context) context.Context {
	if ctx == nil {
		return c.ctx
	}
	return ctx
}

// AMState fetches the AM's state for monitoring.
func (c *Client) AMState() (StateReplyMsg, error) {
	out, err := c.call(c.ctx, KindAMState, nil)
	if err != nil {
		return StateReplyMsg{}, err
	}
	var reply StateReplyMsg
	if err := json.Unmarshal(out, &reply); err != nil {
		return StateReplyMsg{}, fmt.Errorf("coord: bad state reply: %w", err)
	}
	return reply, nil
}
