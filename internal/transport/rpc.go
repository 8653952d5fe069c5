package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/elan-sys/elan/internal/telemetry"
)

// This file implements the server side of the request/reply protocol over
// real TCP. The AM's Service API (coord.NewTCPService) is served this way
// to a scheduler outside the training job's process. The wire format is
// the length-prefixed binary framing of frame.go/wire.go, and requests
// multiplex over the one long-lived connection of client.go's Client. A
// server restart is transparent to callers: a broken connection fails its
// calls with retryable transport errors, the client drops it, and
// Client.CallRetry redials after a backoff — the property the paper gets
// from ZeroMQ.

// DefaultCallTimeout bounds one call (dial, write and reply) when the call
// sets no timeout.
const DefaultCallTimeout = 2 * time.Second

// serverConn is one accepted connection: reads are owned by the serveConn
// loop, writes come from per-request handler goroutines and serialize on
// wmu so concurrent responses never interleave frames.
type serverConn struct {
	conn net.Conn
	wmu  sync.Mutex
	wbuf []byte // response encode buffer, guarded by wmu
}

// Server serves the request/reply protocol on a TCP listener. Requests
// dispatch concurrently: the per-connection read loop hands each decoded
// request to its own goroutine, so one slow handler no longer head-of-line
// blocks every other call multiplexed on the connection, and a panicking
// handler is recovered per request — it produces a CodeHandlerPanic
// response and the connection keeps serving.
type Server struct {
	handler Handler

	mu       sync.Mutex
	listener net.Listener
	conns    map[*serverConn]struct{}
	closed   bool
	wg       sync.WaitGroup
	tr       *telemetry.Recorder
	proc     string

	// Nil-safe instruments; SetMetrics replaces them.
	mRequests *telemetry.Counter
	mPanics   *telemetry.Counter
}

// NewServer creates a server dispatching to h.
func NewServer(h Handler) *Server {
	return &Server{handler: h, conns: make(map[*serverConn]struct{})}
}

// SetTracer makes the server open a remote-child "transport.handle" span
// per request, labeled with the given logical process name. Nil disables
// tracing again.
func (s *Server) SetTracer(tr *telemetry.Recorder, proc string) {
	s.mu.Lock()
	s.tr = tr
	s.proc = proc
	s.mu.Unlock()
}

// SetMetrics wires the server's counters into reg:
// transport_server_requests_total counts dispatched requests and
// transport_handler_panics_total counts handler panics recovered per
// request. A nil registry disables them at zero cost.
func (s *Server) SetMetrics(reg *telemetry.Registry) {
	s.mu.Lock()
	s.mRequests = reg.Counter("transport_server_requests_total")
	s.mPanics = reg.Counter("transport_handler_panics_total")
	s.mu.Unlock()
}

// Listen binds to addr ("127.0.0.1:0" for an ephemeral port) and starts
// accepting connections. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return "", ErrClosed
	}
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		sc := &serverConn{conn: conn}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(sc)
	}
}

// serveConn is the per-connection read loop: it reads one frame at a time
// into a fresh buffer and hands each request to its own goroutine, which
// owns that buffer outright (the decoded payload aliases it).
func (s *Server) serveConn(sc *serverConn) {
	defer s.wg.Done()
	defer func() {
		_ = sc.conn.Close()
		s.mu.Lock()
		delete(s.conns, sc)
		s.mu.Unlock()
	}()
	for {
		var buf []byte
		body, err := readFrame(sc.conn, &buf)
		if err != nil {
			return
		}
		id, kind, payload, tc, err := decodeRequest(body)
		if err != nil {
			return // protocol corruption: tear the connection down
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveRequest(sc, id, kind, payload, tc)
		}()
	}
}

// serveRequest runs the handler for one request and writes its response.
func (s *Server) serveRequest(sc *serverConn, id uint64, kind string, payload []byte, tc telemetry.TraceContext) {
	s.mu.Lock()
	tr, proc := s.tr, s.proc
	mReq, mPanics := s.mRequests, s.mPanics
	s.mu.Unlock()
	mReq.Inc()
	msg := Message{ID: id, Kind: kind, Payload: payload, Trace: tc}
	hspan := tr.StartRemoteSpan("transport.handle", tc)
	if hspan != nil {
		hspan.SetProc(proc)
		hspan.Annotate("kind", kind)
		msg.Trace = hspan.Context()
	}
	out, err := s.dispatch(msg, mPanics)
	if err != nil {
		hspan.Annotate("error", err.Error())
	}
	hspan.End()
	code := codeOf(err)
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
	}
	sc.wmu.Lock()
	sc.wbuf = encodeResponse(sc.wbuf[:0], id, code, errMsg, out)
	_ = writeFrame(sc.conn, sc.wbuf) // write failure ends the conn via the read loop
	sc.wmu.Unlock()
}

// dispatch runs the handler with per-request panic containment: a
// panicking handler yields an ErrHandlerPanic error (CodeHandlerPanic on
// the wire), increments transport_handler_panics_total, and leaves the
// connection — and every other in-flight request on it — serving.
func (s *Server) dispatch(msg Message, panics *telemetry.Counter) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			panics.Inc()
			out, err = nil, fmt.Errorf("%w: %s %v", ErrHandlerPanic, msg.Kind, r)
		}
	}()
	if s.handler == nil {
		return nil, nil
	}
	return s.handler(msg)
}

// Close stops accepting and tears down open connections, waiting for the
// serving goroutines — including in-flight per-request handlers — to exit.
// In-flight callers observe the torn connection as a retryable
// transport error, never a hang.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.conn.Close()
	}
	s.wg.Wait()
}
