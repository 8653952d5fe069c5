package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// Framing for the TCP path: every message on the wire is one
// length-prefixed frame — a 4-byte big-endian body length followed by the
// body. Frames are the multiplexing unit: requests and responses from many
// concurrent calls interleave on one connection and are matched back up by
// the request ID inside the body (wire.go). Each connection owns its
// buffers: the client reads every response into one read buffer, and each
// side encodes into one write buffer under the connection's write lock, so
// the steady-state call path reuses storage instead of allocating per
// message. The one exception is a server's request frame, read into a
// fresh exact-size buffer that the request's goroutine owns outright,
// because the handler reads the payload in place while later frames
// arrive.

const (
	// frameHeaderLen is the byte length of the frame length prefix.
	frameHeaderLen = 4
	// MaxFrameBytes bounds a single frame body. A peer announcing a larger
	// frame is treated as protocol corruption and the connection is torn
	// down rather than letting a bad length prefix drive an enormous
	// allocation.
	MaxFrameBytes = 64 << 20
)

// ErrFrameTooLarge reports a frame whose announced body length exceeds
// MaxFrameBytes. It is a transport-level (retryable) error: the connection
// that produced it is invalid, not the request.
var ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")

// readFrame reads one frame body into *bufp (growing its backing array
// only when the body outgrows it) and returns the body slice, which
// aliases *bufp's storage and is valid until the buffer is reused.
//
//elan:hotpath
func readFrame(r io.Reader, bufp *[]byte) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	buf := *bufp
	if cap(buf) < int(n) {
		buf = make([]byte, n) //elan:vet-allow hotpathalloc — a reused buffer grows to the high-water frame size; a server request frame gets its own exact-size buffer (TestPooledCallSteadyStateAllocsBounded)
		*bufp = buf
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("transport: short frame: %w", err)
	}
	return buf, nil
}

// writeFrame writes frame, whose first frameHeaderLen bytes the encoder
// reserved for the length prefix, in a single Write. The caller holds the
// connection's write lock, which also guards the buffer frame lives in,
// so concurrent callers on a multiplexed connection never interleave
// partial frames.
//
//elan:hotpath
func writeFrame(conn net.Conn, frame []byte) error {
	if len(frame) < frameHeaderLen {
		return errors.New("transport: internal: frame missing header room")
	}
	binary.BigEndian.PutUint32(frame[:frameHeaderLen], uint32(len(frame)-frameHeaderLen))
	_, err := conn.Write(frame)
	if err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}
