package coord

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"

	"github.com/elan-sys/elan/internal/racecheck"
	"github.com/elan-sys/elan/internal/store"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/transport"
)

// roundTrips are the codec's decoders, each followed by the matching
// encoder: a payload a decoder accepts must come back from the encoder
// byte for byte.
var roundTrips = []struct {
	name string
	rt   func([]byte) ([]byte, error)
}{
	{"adjust.request", func(b []byte) ([]byte, error) {
		m, err := decodeAdjustRequest(b)
		return appendAdjustRequest(nil, &m), err
	}},
	{"worker.report", func(b []byte) ([]byte, error) {
		w, err := decodeString(b)
		return appendString(nil, w), err
	}},
	{"worker.coord", func(b []byte) ([]byte, error) {
		after, err := decodeVarint(b)
		return binary.AppendVarint(nil, after), err
	}},
	{"coord reply", func(b []byte) ([]byte, error) {
		a, ok, err := decodeCoordReply(b)
		if !ok {
			return nil, err
		}
		return appendAdjustment(nil, &a), err
	}},
	{"am.state reply", func(b []byte) ([]byte, error) {
		m, err := decodeStateReply(b)
		return appendStateReply(nil, &m), err
	}},
	{"persisted", func(b []byte) ([]byte, error) {
		p, err := decodePersisted(b)
		return appendPersisted(nil, &p), err
	}},
}

// codecValues builds one value of every encoded shape from the fuzzer's
// number and name, and returns each one's encoding with its round-trip
// index.
func codecValues(n int64, name string) []struct {
	rt  int
	enc []byte
} {
	tc := telemetry.TraceContext{Trace: uint64(n), Span: math.MaxUint64, Proc: name}
	adj := Adjustment{Seq: n, Kind: Kind(n % 4), Add: []string{name, "w" + name}, Remove: []string{name}, Trace: tc}
	// A record the AM can write: last is a valid request numbered from 1,
	// and the open adjustment is numbered last+1.
	last := adj.clone()
	last.Seq, last.Kind = 1+n&math.MaxInt32, Migrate
	pending := &pendingState{
		Adjustment: Adjustment{Seq: last.Seq + 1, Kind: ScaleOut, Add: []string{name, "x" + name}},
		Reported:   []bool{n%2 == 0, true},
	}
	return []struct {
		rt  int
		enc []byte
	}{
		{0, appendAdjustRequest(nil, &AdjustRequestMsg{After: n, Kind: Kind(-n), Add: adj.Add, Trace: tc})},
		{0, appendAdjustRequest(nil, &AdjustRequestMsg{})},
		{1, appendString(nil, name)},
		{2, binary.AppendVarint(nil, n)},
		{3, appendAdjustment(nil, &adj)},
		{3, nil},
		{4, appendStateReply(nil, &StateReplyMsg{State: State(n), Seq: -n, Pending: adj.Add})},
		{5, appendPersisted(nil, &persisted{Pending: pending, Last: &last})},
		{5, appendPersisted(nil, &persisted{})},
	}
}

// checkRecovers recovers an AM from a persisted record the codec accepts
// and checks that its State, Seq and PendingWorkers agree, and that a
// coordination after Seq hands out exactly what that state promises.
func checkRecovers(t *testing.T, rec []byte) {
	t.Helper()
	st := store.New()
	if _, err := st.CAS(amKey("j"), 0, rec); err != nil {
		t.Fatal(err)
	}
	am, err := Recover("j", st)
	if err != nil {
		t.Fatalf("accepted record %x does not recover: %v", rec, err)
	}
	state, seq, waiting := am.State(), am.Seq(), am.PendingWorkers()
	if seq < 0 || (state == Pending) != (waiting != nil) {
		t.Fatalf("record %x recovers %v at %d waiting for %v", rec, state, seq, waiting)
	}
	adj, ok, err := am.Coordinate(seq)
	if err != nil || ok != (state == Ready) || (ok && adj.Seq != seq+1) {
		t.Fatalf("record %x: %v at %d coordinates %+v, %v, %v", rec, state, seq, adj, ok, err)
	}
}

// FuzzCoordCodec checks the codec both ways. Every value built from the
// fuzzer's number and name must encode, decode and re-encode to the same
// bytes. Arbitrary bytes through each decoder must not panic, must
// allocate no more than a fixed multiple of their length, and, when a
// decoder accepts them, must re-encode to themselves.
func FuzzCoordCodec(f *testing.F) {
	for _, v := range codecValues(7, "w5") {
		f.Add(int64(7), "w5", v.enc)
	}
	f.Add(int64(-1), "", []byte{0x80, 0x00})
	f.Add(int64(math.MinInt64), "\x00", []byte{0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, n int64, name string, data []byte) {
		for _, v := range codecValues(n, name) {
			rt := roundTrips[v.rt]
			out, err := rt.rt(v.enc)
			if err != nil || !bytes.Equal(out, v.enc) {
				t.Fatalf("%s: %x re-encoded as %x (%v)", rt.name, v.enc, out, err)
			}
		}
		for _, rt := range roundTrips {
			var out []byte
			var err error
			// The re-encode allocates about twice what it reads; the
			// decode's share is bounded by its input's length.
			if got, limit := allocBytes(func() { out, err = rt.rt(data) }), uint64(4096+256*len(data)); got > limit {
				t.Fatalf("%s: %d input bytes allocated %d bytes, over %d", rt.name, len(data), got, limit)
			}
			if err == nil && !bytes.Equal(out, data) {
				t.Fatalf("%s: accepted %x but re-encodes as %x", rt.name, data, out)
			}
		}
		if _, err := decodePersisted(data); err == nil {
			checkRecovers(t, data)
		}
	})
}

// allocBytes returns the bytes fn allocates: the least of three runs, as
// other goroutines of the process may allocate during one.
func allocBytes(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestCodecRefuses pins the strictness the fuzz target relies on.
func TestCodecRefuses(t *testing.T) {
	req := appendAdjustRequest(nil, &AdjustRequestMsg{After: 3, Kind: ScaleOut, Add: []string{"w5"}})
	last := &Adjustment{Seq: 2, Kind: ScaleIn, Remove: []string{"w1"}}
	record := func(pending, last *Adjustment) []byte {
		p := persisted{Last: last}
		if pending != nil {
			p.Pending = &pendingState{Adjustment: *pending, Reported: make([]bool, len(pending.Add))}
		}
		return appendPersisted(nil, &p)
	}
	for _, tc := range []struct {
		name string
		rt   int
		in   []byte
	}{
		{"truncated request", 0, req[:len(req)-1]},
		{"trailing byte", 0, append(req, 0)},
		{"non-minimal varint", 2, []byte{0x80, 0x00}},
		{"overflowing varint", 2, bytes.Repeat([]byte{0xff}, 11)},
		{"empty coordinate", 2, nil},
		{"list longer than the payload", 4, []byte{2, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}},
		{"string longer than the payload", 1, []byte{5, 'w'}},
		{"flag of 2", 5, []byte{2}},
		{"open adjustment skips a number", 5, record(&Adjustment{Seq: 4, Kind: ScaleOut, Add: []string{"w5"}}, last)},
		{"open adjustment repeats a number", 5, record(&Adjustment{Seq: 2, Kind: ScaleOut, Add: []string{"w5"}}, last)},
		{"first open adjustment not 1", 5, record(&Adjustment{Seq: 2, Kind: ScaleOut, Add: []string{"w5"}}, nil)},
		{"last adjustment numbered 0", 5, record(nil, &Adjustment{Kind: ScaleIn, Remove: []string{"w1"}})},
		{"open adjustment of no kind", 5, record(&Adjustment{Seq: 3}, last)},
		{"last scale-out without joiners", 5, record(nil, &Adjustment{Seq: 2, Kind: ScaleOut})},
		{"joiner added twice", 5, record(&Adjustment{Seq: 3, Kind: ScaleOut, Add: []string{"w5", "w5"}}, last)},
	} {
		if _, err := roundTrips[tc.rt].rt(tc.in); err == nil {
			t.Errorf("%s: %s %x accepted", tc.name, roundTrips[tc.rt].name, tc.in)
		}
	}
	if _, err := decodePersisted(record(&Adjustment{Seq: 3, Kind: ScaleOut, Add: []string{"w5"}}, last)); err != nil {
		t.Fatalf("open adjustment numbered last+1: %v", err)
	}
	// An empty list decodes as nil, as the AM's slices.Equal checks expect.
	m, err := decodeAdjustRequest(appendAdjustRequest(nil, &AdjustRequestMsg{Kind: ScaleIn, Add: []string{}, Remove: []string{"w1"}}))
	if err != nil || m.Add != nil || !reflect.DeepEqual(m.Remove, []string{"w1"}) {
		t.Fatalf("decoded %+v, %v", m, err)
	}
}

// idleRig is a bus with an idle AM served on it, a client of that AM, and
// a bare endpoint that answers every call with nothing.
type idleRig struct {
	client *Client
	caller *transport.Endpoint
}

func newIdleRig(tb testing.TB) idleRig {
	tb.Helper()
	bus := transport.NewBus(transport.DefaultBusConfig())
	tb.Cleanup(bus.Close)
	am, err := NewAM("idle", store.New())
	if err != nil {
		tb.Fatal(err)
	}
	svc, err := NewServiceCtx(context.Background(), am, bus, "am")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(svc.Close)
	client, err := NewClient(bus, "worker", "am")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(client.Close)
	if _, err := bus.Endpoint("bare", func(transport.Message) ([]byte, error) { return nil, nil }); err != nil {
		tb.Fatal(err)
	}
	caller, err := bus.Endpoint("caller", nil)
	if err != nil {
		tb.Fatal(err)
	}
	return idleRig{client: client, caller: caller}
}

func (r idleRig) coordinate(tb testing.TB) {
	if _, ok, err := r.client.Coordinate(); ok || err != nil {
		tb.Fatalf("idle Coordinate = %v, %v", ok, err)
	}
}

func (r idleRig) bare(tb testing.TB) {
	if _, err := r.caller.Call("bare", KindCoordinate, nil); err != nil {
		tb.Fatal(err)
	}
}

// TestIdleCoordinateAllocs pins the per-iteration consult at one
// allocation over a bare bus call: the idle answer is an empty reply, so
// the only extra is the one-varint request payload.
func TestIdleCoordinateAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race CI job")
	}
	r := newIdleRig(t)
	bare := testing.AllocsPerRun(200, func() { r.bare(t) })
	coord := testing.AllocsPerRun(200, func() { r.coordinate(t) })
	if coord > bare+1 {
		t.Fatalf("idle Coordinate makes %v allocs, a bare call %v: want at most one more", coord, bare)
	}
}

// BenchmarkIdleCoordinate times the per-iteration consult that finds
// nothing to apply, beside a bare bus call with a nil payload.
func BenchmarkIdleCoordinate(b *testing.B) {
	r := newIdleRig(b)
	for _, bc := range []struct {
		name string
		call func(testing.TB)
	}{{"coordinate", r.coordinate}, {"bare_call", r.bare}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.call(b)
			}
		})
	}
}

// BenchmarkAMPersistRecover times one whole adjustment on the AM, each
// transition persisted (request, two reports, coordination), and the
// recovery of a successor incarnation from the store.
func BenchmarkAMPersistRecover(b *testing.B) {
	st := store.New()
	am, err := NewAM("bench", st)
	if err != nil {
		b.Fatal(err)
	}
	add := []string{"w5", "w6"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		after := int64(i)
		if err := am.RequestAdjustment(after, ScaleOut, add, nil); err != nil {
			b.Fatal(err)
		}
		for _, w := range add {
			if err := am.ReportReady(w); err != nil {
				b.Fatal(err)
			}
		}
		if _, ok, err := am.Coordinate(after); !ok || err != nil {
			b.Fatalf("Coordinate = %v, %v", ok, err)
		}
		if am, err = Recover("bench", st); err != nil {
			b.Fatal(err)
		}
	}
}
