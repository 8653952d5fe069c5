package coord

import (
	"context"
	"encoding/json"
	"fmt"

	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/transport"
)

// This file exposes the AM over the transport layer, giving the paper's
// Service API (Table III) a real message-passing implementation: the
// scheduler and workers interact with the AM only through reliable,
// deduplicated messages, never shared memory. Message kinds:
//
//	adjust.request   scheduler -> AM    RequestAdjustment
//	worker.report    new worker -> AM   ReportReady
//	worker.coord     existing -> AM     Coordinate
//	am.state         anyone -> AM       State/Seq inspection

// Message kinds understood by the AM service.
const (
	KindAdjustRequest = "adjust.request"
	KindWorkerReport  = "worker.report"
	KindCoordinate    = "worker.coord"
	KindAMState       = "am.state"
)

// AdjustRequestMsg is the payload of adjust.request.
type AdjustRequestMsg struct {
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

// Service binds an AM to a bus endpoint.
type Service struct {
	am   *AM
	ep   *transport.Endpoint
	bus  *transport.Bus
	name string
	tr   telemetry.Tracer
	hb   *HeartbeatMonitor
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
	return NewServiceWith(ctx, am, bus, name, nil, nil)
}

// NewServiceWith is NewServiceCtx for a service that opens a span on tr per
// AM operation (a remote child of the transport handler's span, which itself
// chains to the caller) and fans batched worker.beats frames into hb; either
// may be nil. Both are arguments and not setters because registering the
// endpoint is what starts serving: a worker may be retrying a call against
// name already, and the first message handled must find the service whole.
func NewServiceWith(ctx context.Context, am *AM, bus *transport.Bus, name string, tr telemetry.Tracer, hb *HeartbeatMonitor) (*Service, error) {
	if am == nil {
		return nil, fmt.Errorf("coord: nil AM")
	}
	s := &Service{am: am, bus: bus, name: name, tr: telemetry.OrNop(tr), hb: hb}
	ep, err := bus.Endpoint(name, s.handle)
	if err != nil {
		return nil, fmt.Errorf("coord: register service: %w", err)
	}
	s.ep = ep
	if ctx != nil && ctx.Done() != nil {
		context.AfterFunc(ctx, s.Close)
	}
	return s, nil
}

// Close deregisters the service's endpoint from the bus; in-flight calls
// against it fail with transport.ErrClosed. Closing twice is safe.
func (s *Service) Close() { s.bus.Remove(s.name) }

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
		err := s.am.RequestAdjustmentTraced(req.Kind, req.Add, req.Remove, tc)
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
		span := telemetry.StartRemote(s.tr, "coord.coordinate", m.Trace)
		adj, ok, err := s.am.Coordinate()
		if err != nil {
			span.Annotate("error", err.Error())
		}
		span.End()
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

// Client is the worker/scheduler side of the AM service. Every call runs
// under the client's parent context, so cancelling it aborts in-flight
// resend loops.
type Client struct {
	ctx    context.Context
	ep     *transport.Endpoint
	amName string
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
	return &Client{ctx: ctx, ep: ep, amName: amName}, nil
}

// RequestAdjustment calls the AM's service API over the bus.
func (c *Client) RequestAdjustment(kind Kind, add, remove []string) error {
	return c.RequestAdjustmentTraced(c.ctx, kind, add, remove, telemetry.TraceContext{})
}

// RequestAdjustmentTraced is RequestAdjustment under a caller context (which
// may carry the requesting span for the transport layer) and with an
// explicit trace context stored alongside the pending adjustment. A nil ctx
// selects the client's parent context.
func (c *Client) RequestAdjustmentTraced(ctx context.Context, kind Kind, add, remove []string, tc telemetry.TraceContext) error {
	payload, err := json.Marshal(AdjustRequestMsg{Kind: kind, Add: add, Remove: remove, Trace: tc})
	if err != nil {
		return err
	}
	_, err = c.ep.CallCtx(c.callCtx(ctx), c.amName, KindAdjustRequest, payload)
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
	_, err = c.ep.CallCtx(c.callCtx(ctx), c.amName, KindWorkerReport, payload)
	return err
}

// Beats ships one batched liveness frame covering workers — the wire form
// BeatBatcher produces. The service fans it into its attached monitor.
func (c *Client) Beats(workers []string) error {
	payload, err := json.Marshal(BeatsMsg{Workers: workers})
	if err != nil {
		return err
	}
	_, err = c.ep.CallCtx(c.ctx, c.amName, KindHeartbeats, payload)
	return err
}

// Coordinate polls the AM for a pending adjustment.
func (c *Client) Coordinate() (Adjustment, bool, error) {
	return c.CoordinateCtx(c.ctx)
}

// CoordinateCtx is Coordinate under a caller context; a span carried in ctx
// makes the coordination round-trip part of its trace.
func (c *Client) CoordinateCtx(ctx context.Context) (Adjustment, bool, error) {
	out, err := c.ep.CallCtx(c.callCtx(ctx), c.amName, KindCoordinate, nil)
	if err != nil {
		return Adjustment{}, false, err
	}
	var reply CoordReplyMsg
	if err := json.Unmarshal(out, &reply); err != nil {
		return Adjustment{}, false, fmt.Errorf("coord: bad coord reply: %w", err)
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
	out, err := c.ep.CallCtx(c.ctx, c.amName, KindAMState, nil)
	if err != nil {
		return StateReplyMsg{}, err
	}
	var reply StateReplyMsg
	if err := json.Unmarshal(out, &reply); err != nil {
		return StateReplyMsg{}, fmt.Errorf("coord: bad state reply: %w", err)
	}
	return reply, nil
}
