package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/telemetry"
)

func TestWireRequestRoundTrip(t *testing.T) {
	tc := telemetry.TraceContext{Trace: 7, Span: 9, Proc: "am"}
	frame, err := encodeRequest(nil, 42, "adjust.request", []byte("payload-bytes"), tc)
	if err != nil {
		t.Fatalf("encodeRequest: %v", err)
	}
	// writeFrame stamps the length prefix; emulate it to decode the body.
	binary.BigEndian.PutUint32(frame[:frameHeaderLen], uint32(len(frame)-frameHeaderLen))
	id, kind, payload, gotTC, err := decodeRequest(frame[frameHeaderLen:])
	if err != nil {
		t.Fatalf("decodeRequest: %v", err)
	}
	if id != 42 || kind != "adjust.request" || string(payload) != "payload-bytes" || gotTC != tc {
		t.Fatalf("round trip = (%d, %q, %q, %+v)", id, kind, payload, gotTC)
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	frame := encodeResponse(nil, 99, CodeNoEndpoint, "w9", []byte("data"))
	id, code, msg, payload, err := decodeResponse(frame[frameHeaderLen:])
	if err != nil {
		t.Fatalf("decodeResponse: %v", err)
	}
	if id != 99 || code != CodeNoEndpoint || msg != "w9" || string(payload) != "data" {
		t.Fatalf("round trip = (%d, %d, %q, %q)", id, code, msg, payload)
	}
}

func TestWireTruncatedBodiesRejected(t *testing.T) {
	frame, err := encodeRequest(nil, 1, "k", []byte("p"), telemetry.TraceContext{})
	if err != nil {
		t.Fatalf("encodeRequest: %v", err)
	}
	body := frame[frameHeaderLen:]
	// Every strict prefix that cuts a fixed-width field or a string length
	// must fail loudly, never panic or mis-parse.
	for cut := 0; cut < len(body)-1; cut++ {
		if _, _, _, _, err := decodeRequest(body[:cut]); err == nil && cut < len(body)-1 {
			t.Fatalf("decodeRequest accepted %d/%d-byte prefix", cut, len(body))
		}
	}
	if _, _, _, _, err := decodeResponse(body); err == nil {
		t.Fatal("decodeResponse accepted a request body")
	}
}

func TestReadFrameRejectsOversizeAndReusesBuffer(t *testing.T) {
	var huge [frameHeaderLen]byte
	binary.BigEndian.PutUint32(huge[:], MaxFrameBytes+1)
	var buf []byte
	bufp := &buf
	if _, err := readFrame(bytes.NewReader(huge[:]), bufp); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize frame error = %v, want ErrFrameTooLarge", err)
	}
	// Two sequential frames through one buffer: the second read must reuse
	// the first's storage when it fits.
	var stream bytes.Buffer
	for _, body := range []string{"first-frame-body", "second"} {
		var hdr [frameHeaderLen]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
		stream.Write(hdr[:])
		stream.WriteString(body)
	}
	b1, err := readFrame(&stream, bufp)
	if err != nil {
		t.Fatalf("first readFrame: %v", err)
	}
	if string(b1) != "first-frame-body" {
		t.Fatalf("first body = %q", b1)
	}
	cap1 := cap(*bufp)
	b2, err := readFrame(&stream, bufp)
	if err != nil {
		t.Fatalf("second readFrame: %v", err)
	}
	if string(b2) != "second" || cap(*bufp) != cap1 {
		t.Fatalf("second body = %q, cap %d → %d (want reuse)", b2, cap1, cap(*bufp))
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"dial", fmt.Errorf("transport: dial 1.2.3.4: %w", &net.OpError{Op: "dial", Err: errors.New("refused")}), true},
		{"conn lost", fmt.Errorf("transport: connection lost: %w", errors.New("EOF")), true},
		{"call timeout", fmt.Errorf("%w: kind x", ErrCallTimeout), true},
		{"frame too large", ErrFrameTooLarge, true},
		{"ctx cancel", context.Canceled, false},
		{"ctx deadline", context.DeadlineExceeded, false},
		{"client closed", ErrClosed, false},
		{"handler app error", &HandlerError{Code: CodeApp, Msg: "boom"}, false},
		{"handler no endpoint", &HandlerError{Code: CodeNoEndpoint, Msg: "w9"}, false},
		{"handler panic", &HandlerError{Code: CodeHandlerPanic, Msg: "panicked"}, false},
		{"wrapped handler error", fmt.Errorf("coord: %w", &HandlerError{Code: CodeApp, Msg: "x"}), false},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// errorIdentityTable is the contract both delivery paths must satisfy: a
// handler returning the given error must yield a caller-side error for
// which errors.Is(err, sentinel) holds and the message survives.
var errorIdentityTable = []struct {
	name     string
	handler  error
	sentinel error
}{
	{"no endpoint", fmt.Errorf("%w: w9", ErrNoEndpoint), ErrNoEndpoint},
	{"closed", fmt.Errorf("%w: during drain", ErrClosed), ErrClosed},
	{"app error", errors.New("coord: worker w1 not in pending state"), nil},
}

// callPath runs one request against a handler and returns the caller-side
// error, over a specific delivery path.
type callPath func(t *testing.T, h Handler) error

func busPath(t *testing.T, h Handler) error {
	t.Helper()
	bus, _ := simBus(t, DefaultBusConfig())
	if _, err := bus.Endpoint("server", h); err != nil {
		t.Fatalf("Endpoint: %v", err)
	}
	client, err := bus.Endpoint("client", nil)
	if err != nil {
		t.Fatalf("Endpoint: %v", err)
	}
	_, callErr := client.Call("server", "probe", nil)
	return callErr
}

// tcpOneShotPath makes one CallRetry through a fresh client, the
// way coord's TCP client calls: the retry loop must hand a terminal error
// back as it came.
func tcpOneShotPath(t *testing.T, h Handler) error {
	t.Helper()
	srv := NewServer(h)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(srv.Close)
	client := NewClient(addr, ClientConfig{})
	t.Cleanup(client.Close)
	_, callErr := client.CallRetry(context.Background(), "probe", nil, time.Second)
	return callErr
}

func tcpPooledPath(t *testing.T, h Handler) error {
	t.Helper()
	srv := NewServer(h)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(srv.Close)
	client := NewClient(addr, ClientConfig{})
	t.Cleanup(client.Close)
	_, callErr := client.Call(context.Background(), "probe", nil, time.Second)
	return callErr
}

// TestErrorIdentityAcrossPaths is the regression for the error-identity
// bug: the gob path collapsed server errors into errors.New(resp.Err), so
// errors.Is(err, ErrNoEndpoint) held on the bus but silently failed
// over TCP. The bus, a TCP Call and a TCP CallRetry run the same
// table.
func TestErrorIdentityAcrossPaths(t *testing.T) {
	guardGoroutines(t)
	paths := []struct {
		name string
		run  callPath
	}{
		{"bus", busPath},
		{"tcp-oneshot", tcpOneShotPath},
		{"tcp-pooled", tcpPooledPath},
	}
	for _, p := range paths {
		for _, c := range errorIdentityTable {
			t.Run(p.name+"/"+c.name, func(t *testing.T) {
				handlerErr := c.handler
				err := p.run(t, func(Message) ([]byte, error) { return nil, handlerErr })
				if err == nil {
					t.Fatal("handler error did not propagate")
				}
				if c.sentinel != nil && !errors.Is(err, c.sentinel) {
					t.Fatalf("errors.Is(%v, %v) = false", err, c.sentinel)
				}
				// Non-sentinel identity must not be invented: an app error
				// matches no transport sentinel.
				if c.sentinel == nil {
					for _, s := range []error{ErrNoEndpoint, ErrClosed, ErrHandlerPanic} {
						if errors.Is(err, s) {
							t.Fatalf("app error %v gained sentinel identity %v", err, s)
						}
					}
				}
				if want := handlerErr.Error(); !errors.Is(err, c.handler) && err.Error() != want {
					t.Fatalf("message %q, want %q", err.Error(), want)
				}
			})
		}
	}
}

// TestWireEncodeConcurrent shakes out shared codec state: many goroutines
// encode and decode distinct requests, each reusing its own buffer as a
// connection reuses its write buffer.
func TestWireEncodeConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 200; i++ {
				want := fmt.Sprintf("g%d-i%d", g, i)
				frame, err := encodeRequest(buf[:0], uint64(i), "k", []byte(want), telemetry.TraceContext{})
				if err != nil {
					t.Error(err)
					return
				}
				buf = frame
				_, _, payload, _, err := decodeRequest(frame[frameHeaderLen:])
				if err != nil || string(payload) != want {
					t.Errorf("decode = %q, %v, want %q", payload, err, want)
				}
			}
		}()
	}
	wg.Wait()
}
