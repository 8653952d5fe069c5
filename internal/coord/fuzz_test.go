package coord

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/store"
	"github.com/elan-sys/elan/internal/transport"
)

// FuzzServiceHandle feeds an arbitrary message kind and payload to a
// bus-bound Service's handler, with the AM idle, pending or ready. The
// handler must never panic; an adjust.request or worker.report it refuses —
// a malformed payload always is refused — must leave the AM's state and
// sequence number as they were.
func FuzzServiceHandle(f *testing.F) {
	seed := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	// The messages of TestOneServiceBothWires.
	for _, m := range []struct {
		kind    string
		payload []byte
	}{
		{KindAdjustRequest, seed(AdjustRequestMsg{Kind: ScaleOut, Add: []string{"w5", "w6"}})},
		{KindAdjustRequest, seed(AdjustRequestMsg{Kind: ScaleIn, Remove: []string{"w1"}})},
		{KindWorkerReport, seed(ReportMsg{Worker: "w5"})},
		{KindWorkerReport, seed(ReportMsg{Worker: "w9"})},
		{KindAMState, nil},
		{KindCoordinate, nil},
		{KindHeartbeats, seed(BeatsMsg{Workers: []string{"w1"}})},
		{KindAdjustRequest, []byte(`{"kind":`)},
	} {
		for start := uint8(0); start < 3; start++ {
			f.Add(start, m.kind, m.payload)
		}
	}

	bus := transport.NewBus(transport.DefaultBusConfig())
	f.Cleanup(bus.Close)
	hb, err := NewHeartbeatMonitor(clock.NewSim(time.Time{}))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, start uint8, kind string, payload []byte) {
		am, err := NewAM("fuzz", store.New())
		if err != nil {
			t.Fatal(err)
		}
		// start picks the AM's state: idle, pending on w5 and w6, or ready.
		switch start % 3 {
		case 1:
			err = am.RequestAdjustment(ScaleOut, []string{"w5", "w6"}, nil)
		case 2:
			err = am.RequestAdjustment(ScaleIn, nil, []string{"w1"})
		}
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewServiceWith(context.Background(), am, bus, "am", nil, hb)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		state, seq := am.State(), am.Seq()

		_, err = svc.handle(transport.Message{Kind: kind, Payload: payload})

		var malformed bool
		switch kind {
		case KindAdjustRequest:
			malformed = json.Unmarshal(payload, new(AdjustRequestMsg)) != nil
		case KindWorkerReport:
			malformed = json.Unmarshal(payload, new(ReportMsg)) != nil
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
