package transport

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/elan-sys/elan/internal/telemetry"
)

// FuzzWireDecode feeds arbitrary bytes to the TCP path's codec: as a frame
// body to decodeRequest and decodeResponse, and as a stream to readFrame
// under MaxFrameBytes. None of them may panic; bad input only returns an
// error. A body that decodes is re-encoded, framed, read back through
// readFrame and decoded again, and must give the same fields; the codec has
// one encoding per message, so the re-encoded body is the input itself.
func FuzzWireDecode(f *testing.F) {
	// The frames of the codec round-trip tests, whole and as bodies.
	req, err := encodeRequest(nil, 42, "adjust.request", []byte("payload-bytes"), telemetry.TraceContext{Trace: 7, Span: 9, Proc: "am"})
	if err != nil {
		f.Fatal(err)
	}
	binary.BigEndian.PutUint32(req[:frameHeaderLen], uint32(len(req)-frameHeaderLen))
	resp := encodeResponse(nil, 99, CodeNoEndpoint, "w9", []byte("data"))
	binary.BigEndian.PutUint32(resp[:frameHeaderLen], uint32(len(resp)-frameHeaderLen))
	short, err := encodeRequest(nil, 1, "k", []byte("p"), telemetry.TraceContext{})
	if err != nil {
		f.Fatal(err)
	}
	binary.BigEndian.PutUint32(short[:frameHeaderLen], uint32(len(short)-frameHeaderLen))
	var huge [frameHeaderLen]byte
	binary.BigEndian.PutUint32(huge[:], MaxFrameBytes+1)
	for _, frame := range [][]byte{req, resp, short} {
		f.Add(frame)
		f.Add(frame[frameHeaderLen:])
		f.Add(frame[:len(frame)-1])
	}
	f.Add(huge[:])
	f.Add([]byte("\x00\x00\x00\x10first-frame-body\x00\x00\x00\x06second"))

	f.Fuzz(func(t *testing.T, data []byte) {
		bufp := getFrameBuf()
		defer putFrameBuf(bufp)

		if body, err := readFrame(bytes.NewReader(data), bufp); err == nil {
			n := binary.BigEndian.Uint32(data)
			if n > MaxFrameBytes || !bytes.Equal(body, data[frameHeaderLen:frameHeaderLen+int(n)]) {
				t.Fatalf("readFrame returned %d bytes for a %d-byte frame", len(body), n)
			}
		}

		if id, kind, payload, tc, err := decodeRequest(data); err == nil {
			frame, err := encodeRequest(nil, id, kind, payload, tc)
			if err != nil {
				t.Fatalf("re-encode decoded request: %v", err)
			}
			body := reread(t, frame, bufp)
			id2, kind2, payload2, tc2, err := decodeRequest(body)
			if err != nil || id2 != id || kind2 != kind || !bytes.Equal(payload2, payload) || tc2 != tc {
				t.Fatalf("request (%d, %q, %q, %+v) came back as (%d, %q, %q, %+v), %v",
					id, kind, payload, tc, id2, kind2, payload2, tc2, err)
			}
			if !bytes.Equal(body, data) {
				t.Fatalf("request re-encoded as %x, decoded from %x", body, data)
			}
		}

		if id, code, msg, payload, err := decodeResponse(data); err == nil {
			body := reread(t, encodeResponse(nil, id, code, msg, payload), bufp)
			id2, code2, msg2, payload2, err := decodeResponse(body)
			if err != nil || id2 != id || code2 != code || msg2 != msg || !bytes.Equal(payload2, payload) {
				t.Fatalf("response (%d, %d, %q, %q) came back as (%d, %d, %q, %q), %v",
					id, code, msg, payload, id2, code2, msg2, payload2, err)
			}
			if !bytes.Equal(body, data) {
				t.Fatalf("response re-encoded as %x, decoded from %x", body, data)
			}
		}
	})
}

// reread stamps frame's length prefix, as writeFrame does, and reads the
// frame back through readFrame into bufp, returning its body.
func reread(t *testing.T, frame []byte, bufp *[]byte) []byte {
	t.Helper()
	binary.BigEndian.PutUint32(frame[:frameHeaderLen], uint32(len(frame)-frameHeaderLen))
	body, err := readFrame(bytes.NewReader(frame), bufp)
	if err != nil {
		t.Fatalf("readFrame of a re-encoded frame: %v", err)
	}
	return body
}
