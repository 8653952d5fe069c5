package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/elan-sys/elan/internal/telemetry"
)

// Binary codec for the TCP path. The previous protocol gob-encoded each
// request/response, which allocated per message and — worse — flattened
// server-side errors into bare strings, so errors.Is(err, ErrNoEndpoint)
// held on the in-process bus but silently failed over TCP. This codec writes fixed-layout binary bodies into pooled frame
// buffers and carries a typed error code in every response so sentinel
// identity survives the round trip.
//
// Request body (after the frame length prefix):
//
//	byte    wireRequest
//	uint64  request ID (unique per connection)
//	uint64  trace ID     } telemetry.TraceContext
//	uint64  span ID      }
//	uint16  len(proc), proc bytes
//	uint16  len(kind), kind bytes
//	rest    payload
//
// Response body:
//
//	byte    wireResponse
//	uint64  request ID (echoed)
//	uint16  error code
//	uint16  len(error message), message bytes
//	rest    payload
type wireType byte

const (
	wireRequest  wireType = 1
	wireResponse wireType = 2
)

// ErrorCode is the typed wire representation of a handler-level error.
// Codes exist so the sentinels the coordination protocol dispatches on
// keep their identity across TCP exactly as on the in-process bus.
type ErrorCode uint16

const (
	// CodeOK marks a successful response; the error message is empty.
	CodeOK ErrorCode = iota
	// CodeApp is a handler error with no sentinel identity: only its
	// message crosses the wire. It is terminal: the handler ran and gave
	// its verdict, which a resend would only repeat.
	CodeApp
	_ // 2 is retired (a stale sender incarnation); left unused so no code changes value
	// CodeNoEndpoint maps ErrNoEndpoint.
	CodeNoEndpoint
	// CodeClosed maps ErrClosed.
	CodeClosed
	// CodeHandlerPanic maps ErrHandlerPanic: the handler panicked and the
	// server recovered, replied, and kept the connection serving.
	CodeHandlerPanic
)

// ErrHandlerPanic is the sentinel behind CodeHandlerPanic responses. A
// panicking handler is a server bug, not a transient transport fault, so
// it is terminal under CallRetry.
var ErrHandlerPanic = errors.New("transport: handler panicked")

// codeSentinels maps each typed code to the sentinel it preserves. CodeApp
// is deliberately absent: an application error has message-only identity.
var codeSentinels = map[ErrorCode]error{
	CodeNoEndpoint:   ErrNoEndpoint,
	CodeClosed:       ErrClosed,
	CodeHandlerPanic: ErrHandlerPanic,
}

// codeOf classifies a handler error for the wire.
func codeOf(err error) ErrorCode {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, ErrNoEndpoint):
		return CodeNoEndpoint
	case errors.Is(err, ErrClosed):
		return CodeClosed
	case errors.Is(err, ErrHandlerPanic):
		return CodeHandlerPanic
	default:
		return CodeApp
	}
}

// HandlerError is a remote handler's error reconstructed on the client
// side of the TCP path. Unwrap restores the sentinel named by Code, so
// errors.Is(err, transport.ErrNoEndpoint) behaves identically on the
// bus and TCP paths. A HandlerError is terminal: the remote handler ran
// and deterministically failed, so CallRetry returns it immediately
// instead of re-executing the handler through the backoff budget.
type HandlerError struct {
	Code ErrorCode
	Msg  string
}

func (e *HandlerError) Error() string { return e.Msg }

// Unwrap exposes the sentinel behind typed codes (nil for CodeApp).
func (e *HandlerError) Unwrap() error { return codeSentinels[e.Code] }

// IsHandlerError reports whether err carries a remote handler's verdict —
// the terminal half of the retry contract.
func IsHandlerError(err error) bool {
	var he *HandlerError
	return errors.As(err, &he)
}

// Retryable reports whether a Call error may be retried against the same
// address. Transport-level failures (dial refused, I/O deadline, torn
// connection, frame/codec corruption) are retryable: the request may never
// have reached a healthy server, and a restart heals them. Handler-level
// errors and context cancellation are terminal: retrying would re-execute
// a handler that already ran to a deterministic verdict, or outlive the
// caller's interest. Client.CallRetry consults this, and callers layering
// their own retries should too.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	// A local ErrClosed (the Client or Endpoint was deliberately shut
	// down) is terminal: retrying against a closed client can never
	// succeed. The remote form arrives as a HandlerError and is terminal
	// below anyway.
	if errors.Is(err, ErrClosed) {
		return false
	}
	return !IsHandlerError(err)
}

// appendUint16Str appends a uint16 length prefix and the string bytes.
func appendUint16Str(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// encodeRequest appends a request frame (header room included) to dst.
func encodeRequest(dst []byte, id uint64, kind string, payload []byte, tc telemetry.TraceContext) ([]byte, error) {
	if len(kind) > 0xffff || len(tc.Proc) > 0xffff {
		return dst, fmt.Errorf("transport: kind/proc too long (%d/%d bytes)", len(kind), len(tc.Proc))
	}
	dst = append(dst, make([]byte, frameHeaderLen)...)
	dst = append(dst, byte(wireRequest))
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, tc.Trace)
	dst = binary.BigEndian.AppendUint64(dst, tc.Span)
	dst = appendUint16Str(dst, tc.Proc)
	dst = appendUint16Str(dst, kind)
	return append(dst, payload...), nil
}

// encodeResponse appends a response frame (header room included) to dst.
func encodeResponse(dst []byte, id uint64, code ErrorCode, errMsg string, payload []byte) []byte {
	if len(errMsg) > 0xffff {
		errMsg = errMsg[:0xffff]
	}
	dst = append(dst, make([]byte, frameHeaderLen)...)
	dst = append(dst, byte(wireResponse))
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint16(dst, uint16(code))
	dst = appendUint16Str(dst, errMsg)
	return append(dst, payload...)
}

var errBadFrame = errors.New("transport: malformed frame body")

// wireReader walks a frame body with bounds checking.
type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.err = errBadFrame
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *wireReader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.err = errBadFrame
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *wireReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.err = errBadFrame
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// str reads a uint16-prefixed string, copying out of the frame buffer (the
// buffer is pooled; strings escape it).
func (r *wireReader) str() string {
	n := int(r.u16())
	if r.err != nil || r.off+n > len(r.b) {
		r.err = errBadFrame
		return ""
	}
	v := string(r.b[r.off : r.off+n])
	r.off += n
	return v
}

// rest returns the remaining bytes, aliasing the frame buffer.
func (r *wireReader) rest() []byte {
	if r.err != nil {
		return nil
	}
	return r.b[r.off:]
}

// decodeRequest parses a request frame body. The returned payload aliases
// body and is only valid until the frame buffer is reused — the server
// hands it to the handler and recycles the buffer after the handler
// returns, matching the in-process bus's ownership contract.
func decodeRequest(body []byte) (id uint64, kind string, payload []byte, tc telemetry.TraceContext, err error) {
	r := &wireReader{b: body}
	if t := wireType(r.u8()); r.err == nil && t != wireRequest {
		return 0, "", nil, tc, fmt.Errorf("%w: type %d, want request", errBadFrame, t)
	}
	id = r.u64()
	tc.Trace = r.u64()
	tc.Span = r.u64()
	tc.Proc = r.str()
	kind = r.str()
	payload = r.rest()
	return id, kind, payload, tc, r.err
}

// decodeResponse parses a response frame body. The returned payload
// aliases body; callers that hand it beyond the frame buffer's lifetime
// must copy (the client copies once into the caller's result).
func decodeResponse(body []byte) (id uint64, code ErrorCode, errMsg string, payload []byte, err error) {
	r := &wireReader{b: body}
	if t := wireType(r.u8()); r.err == nil && t != wireResponse {
		return 0, 0, "", nil, fmt.Errorf("%w: type %d, want response", errBadFrame, t)
	}
	id = r.u64()
	code = ErrorCode(r.u16())
	errMsg = r.str()
	payload = r.rest()
	return id, code, errMsg, payload, r.err
}

// responseError reconstructs the handler error a response frame carries.
func responseError(code ErrorCode, msg string) error {
	if code == CodeOK {
		return nil
	}
	return &HandlerError{Code: code, Msg: msg}
}
