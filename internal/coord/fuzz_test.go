package coord

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/elan-sys/elan/internal/store"
	"github.com/elan-sys/elan/internal/transport"
)

// FuzzServiceHandle feeds an arbitrary message kind and payload to a
// bus-bound Service's handler, with the AM idle, pending or ready. The
// handler must never panic; an adjust.request or worker.report it refuses —
// a malformed payload always is refused — must leave the AM's state and
// sequence number as they were.
func FuzzServiceHandle(f *testing.F) {
	scaleOut := appendAdjustRequest(nil, &AdjustRequestMsg{Kind: ScaleOut, Add: []string{"w5", "w6"}})
	// The messages of TestOneServiceBothWires, and a truncated request and
	// report.
	for _, m := range []struct {
		kind    string
		payload []byte
	}{
		{KindAdjustRequest, scaleOut},
		{KindAdjustRequest, appendAdjustRequest(nil, &AdjustRequestMsg{Kind: ScaleIn, Remove: []string{"w1"}})},
		{KindWorkerReport, appendString(nil, "w5")},
		{KindWorkerReport, appendString(nil, "w9")},
		{KindAMState, nil},
		{KindCoordinate, binary.AppendVarint(nil, 0)},
		{KindAdjustRequest, scaleOut[:len(scaleOut)-2]},
		{KindWorkerReport, appendString(nil, "w5")[:2]},
	} {
		for start := uint8(0); start < 3; start++ {
			f.Add(start, m.kind, m.payload)
		}
	}

	bus := transport.NewBus(transport.DefaultBusConfig())
	f.Cleanup(bus.Close)
	f.Fuzz(func(t *testing.T, start uint8, kind string, payload []byte) {
		am, err := NewAM("fuzz", store.New())
		if err != nil {
			t.Fatal(err)
		}
		// start picks the AM's state: idle, pending on w5 and w6, or ready.
		switch start % 3 {
		case 1:
			err = am.RequestAdjustment(0, ScaleOut, []string{"w5", "w6"}, nil)
		case 2:
			err = am.RequestAdjustment(0, ScaleIn, nil, []string{"w1"})
		}
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewServiceWith(context.Background(), am, bus, "am", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		state, seq := am.State(), am.Seq()

		_, err = svc.handle(transport.Message{Kind: kind, Payload: payload})

		var malformed bool
		switch kind {
		case KindAdjustRequest:
			_, err := decodeAdjustRequest(payload)
			malformed = err != nil
		case KindWorkerReport:
			_, err := decodeString(payload)
			malformed = err != nil
		default:
			return
		}
		if malformed && err == nil {
			t.Fatalf("malformed %s %q accepted", kind, payload)
		}
		if err != nil && (am.State() != state || am.Seq() != seq) {
			t.Fatalf("refused %s %q (%v) moved the AM from %v/%d to %v/%d",
				kind, payload, err, state, seq, am.State(), am.Seq())
		}
	})
}

// FuzzRestoreSentinel feeds restoreSentinel a handler error off the TCP
// wire with an arbitrary code and message, and errors that no handler
// returned. A handler error must keep its message and gain the identity of
// exactly the AM sentinels its message starts with; any other error must
// come back as it went in.
func FuzzRestoreSentinel(f *testing.F) {
	for _, s := range wireSentinels {
		f.Add(uint8(transport.CodeApp), s.Error())
		f.Add(uint8(transport.CodeApp), s.Error()+": w9 (pending [w5 w6])")
		f.Add(uint8(transport.CodeNoEndpoint), "  "+s.Error())
	}
	f.Add(uint8(transport.CodeHandlerPanic), "transport: handler panicked: worker.coord boom")
	f.Add(uint8(200), "")
	f.Fuzz(func(t *testing.T, code uint8, msg string) {
		he := &transport.HandlerError{Code: transport.ErrorCode(code), Msg: msg}
		out := restoreSentinel(he)
		if out.Error() != msg {
			t.Fatalf("message %q came back as %q", msg, out.Error())
		}
		if !transport.IsHandlerError(out) || transport.Retryable(out) != transport.Retryable(he) {
			t.Fatalf("%q lost its place in the retry contract", msg)
		}
		for _, s := range wireSentinels {
			if got, want := errors.Is(out, s), strings.HasPrefix(msg, s.Error()); got != want {
				t.Fatalf("errors.Is(%q, %v) = %v, want %v", msg, s, got, want)
			}
		}
		for _, in := range []error{errors.New(msg), fmt.Errorf("%w: %s", transport.ErrCallTimeout, msg)} {
			if out := restoreSentinel(in); out != in {
				t.Fatalf("non-handler error %v came back as %#v", in, out)
			}
		}
	})
}
