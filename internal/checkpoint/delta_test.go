package checkpoint

import (
	"errors"
	"math"
	"testing"

	"github.com/elan-sys/elan/internal/telemetry"
)

func ramp(n int, base float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + float64(i)
	}
	return out
}

// newTestStore is NewDeltaStore with a copy unit of chunk elements, so
// small states split into many units.
func newTestStore(chunk int, reg *telemetry.Registry) *DeltaStore {
	d := NewDeltaStore(DeltaConfig{Metrics: reg})
	d.chunkElems = chunk
	return d
}

// restore reads name's published snapshot into a buffer sized by Head.
func restore(d *DeltaStore, name string) ([]byte, []float64, RestoreStats, error) {
	_, n, _ := d.Head(name)
	state := make([]float64, n)
	hdr, st, err := d.RestoreFrom(name, state, 0)
	return hdr, state, st, err
}

func TestDeltaSaveRestoreRoundTrip(t *testing.T) {
	d := newTestStore(64, nil)
	state := ramp(1000, 0) // 16 units, last one partial
	st, err := d.Save("job", []byte("hdr1"), state)
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 1 || st.ChunksTotal != 16 || st.ChunksWritten != 16 || st.BytesWritten != 8000 {
		t.Fatalf("first save stats = %+v", st)
	}
	hdr, got, rs, err := restore(d, "job")
	if err != nil || string(hdr) != "hdr1" {
		t.Fatalf("restore: %q, %v", hdr, err)
	}
	if !sameBits(got, state) {
		t.Fatal("restored state differs from the saved one")
	}
	if rs != (RestoreStats{Seq: 1, Bytes: 8000}) {
		t.Fatalf("restore stats = %+v", rs)
	}
	if h, n, ok := d.Head("job"); !ok || string(h) != "hdr1" || n != 1000 {
		t.Fatalf("Head = %q %d %v", h, n, ok)
	}
}

// TestDeltaWarmRestoreFrom: a restore into a buffer that holds an older
// save, the published one or anything else copies the whole snapshot over
// it.
func TestDeltaWarmRestoreFrom(t *testing.T) {
	d := newTestStore(64, nil)
	state := ramp(64*64, 0)
	s1, err := d.Save("job", nil, state)
	if err != nil {
		t.Fatal(err)
	}
	warm := append([]float64(nil), state...) // the state as of s1
	state[0], state[64*33] = -1, -2
	s2, err := d.Save("job", []byte("h2"), state)
	if err != nil {
		t.Fatal(err)
	}
	hdr, rs, err := d.RestoreFrom("job", warm, s1.Seq)
	if err != nil || string(hdr) != "h2" {
		t.Fatalf("RestoreFrom: %q, %v", hdr, err)
	}
	if rs != (RestoreStats{Seq: s2.Seq, Bytes: 8 * int64(len(state))}) || !sameBits(warm, state) {
		t.Fatalf("stale warm restore %+v did not land on the published snapshot", rs)
	}
	warm[1] = -3
	if _, rs, err = d.RestoreFrom("job", warm, s2.Seq); err != nil || rs != (RestoreStats{Seq: s2.Seq, Bytes: 8 * int64(len(state))}) || !sameBits(warm, state) {
		t.Fatalf("restore at the published seq = %+v, %v; want the whole snapshot copied", rs, err)
	}
	cold := make([]float64, len(state))
	if _, rs, err = d.RestoreFrom("job", cold, 9999); err != nil || rs.Bytes != 8*int64(len(state)) || !sameBits(cold, state) {
		t.Fatalf("unknown-seq restore = %+v, %v", rs, err)
	}
	if _, _, err := d.RestoreFrom("job", make([]float64, 3), s2.Seq); !errors.Is(err, ErrStateSize) {
		t.Fatalf("size mismatch = %v", err)
	}
}

// TestDeltaSpecialValuesBitExact: NaN payloads, -0, infinities and
// subnormals come back from Restore and RestoreFrom with the bits they were
// saved with, from a state split into several copy units.
func TestDeltaSpecialValuesBitExact(t *testing.T) {
	d := newTestStore(4, nil)
	state := ramp(30, 0.5)
	for k, v := range specialFloats {
		state[4*k+1] = v
	}
	saved := append([]float64(nil), state...)
	st, err := d.Save("job", nil, state)
	if err != nil {
		t.Fatal(err)
	}
	state[1] = 0 // the store holds its own copy
	check := func(how string, got []float64) {
		t.Helper()
		for i := range saved {
			if g, w := math.Float64bits(got[i]), math.Float64bits(saved[i]); g != w {
				t.Fatalf("%s: element %d has bits %#016x, saved %#016x", how, i, g, w)
			}
		}
	}
	_, got, _, err := restore(d, "job")
	if err != nil {
		t.Fatal(err)
	}
	check("Restore", got)
	into := filled(len(saved), math.NaN())
	if _, rs, err := d.RestoreFrom("job", into, 0); err != nil || rs != (RestoreStats{Seq: st.Seq, Bytes: 8 * int64(len(saved))}) {
		t.Fatalf("RestoreFrom = %+v, %v", rs, err)
	}
	check("RestoreFrom", into)
}

func TestDeltaCrashMidSaveRecoversLastCommit(t *testing.T) {
	d := newTestStore(64, nil)
	state := ramp(64*16, 0)
	if _, err := d.Save("job", []byte("h1"), state); err != nil {
		t.Fatal(err)
	}
	committed := append([]float64(nil), state...)

	for _, i := range []int{0, 64 * 4, 64 * 9, 64 * 15} {
		state[i] = -7
	}
	d.InjectCrash()
	st, err := d.Save("job", []byte("h2"), state)
	if !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("crash save = %v", err)
	}
	if st != (SaveStats{ChunksTotal: 16}) {
		t.Fatalf("torn save stats = %+v, want nothing written", st)
	}

	// Recovery sees the previous commit, bit-identical.
	hdr, got, _, err := restore(d, "job")
	if err != nil || string(hdr) != "h1" || !sameBits(got, committed) {
		t.Fatalf("post-crash restore: %q, %v, same=%v", hdr, err, sameBits(got, committed))
	}

	// The retried save commits normally.
	if _, err := d.Save("job", []byte("h2"), state); err != nil {
		t.Fatal(err)
	}
	hdr, got, _, err = restore(d, "job")
	if err != nil || string(hdr) != "h2" || !sameBits(got, state) {
		t.Fatalf("post-retry restore: %q, %v, same=%v", hdr, err, sameBits(got, state))
	}
}

// TestInjectCrashTearsTheNextSave: the hook tears exactly the next Save,
// whatever it saves — an unchanged state, another name, a resized state, a
// name with nothing committed yet — and is spent by it.
func TestInjectCrashTearsTheNextSave(t *testing.T) {
	d := newTestStore(16, nil)
	state := ramp(100, 0)
	s1, err := d.Save("job", []byte("h1"), state)
	if err != nil {
		t.Fatal(err)
	}
	tear := func(name string, st []float64) {
		t.Helper()
		d.InjectCrash()
		if _, err := d.Save(name, nil, st); !errors.Is(err, ErrCrashInjected) {
			t.Fatalf("armed save of %s = %v", name, err)
		}
		if seq, ok := d.LastSeq("job"); !ok || seq != s1.Seq {
			t.Fatalf("torn save moved the head to %d (ok=%v)", seq, ok)
		}
	}
	tear("job", state) // an unchanged state: nothing is skipped
	if _, err := d.Save("other", nil, state); err != nil {
		t.Fatalf("the save after a torn one = %v", err)
	}
	tear("fresh", state)
	if _, ok := d.LastSeq("fresh"); ok {
		t.Fatal("a torn first save published a snapshot")
	}

	// A resize right after a torn save.
	tear("job", ramp(300, 1))
	hdr, got, _, err := restore(d, "job")
	if err != nil || string(hdr) != "h1" || !sameBits(got, state) {
		t.Fatalf("restore after a torn resize: %q, %d elems, %v", hdr, len(got), err)
	}
	grown := ramp(300, 2)
	st, err := d.Save("job", []byte("h3"), grown)
	if err != nil || st.Seq <= s1.Seq || st.BytesWritten != 8*300 {
		t.Fatalf("resized save after a torn one = %+v, %v", st, err)
	}
	if hdr, got, _, err = restore(d, "job"); err != nil || string(hdr) != "h3" || !sameBits(got, grown) {
		t.Fatalf("restore after the resize: %q, %d elems, %v", hdr, len(got), err)
	}
}

func TestDeltaModelResizeForcesFull(t *testing.T) {
	d := newTestStore(64, nil)
	s1, err := d.Save("job", nil, ramp(128, 0))
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.Save("job", nil, ramp(256, 1))
	if err != nil || st.ChunksWritten != 4 || st.BytesWritten != 8*256 {
		t.Fatalf("resized save = %+v, %v", st, err)
	}
	_, got, _, err := restore(d, "job")
	if err != nil || !sameBits(got, ramp(256, 1)) {
		t.Fatalf("restore after resize: %d elems, %v", len(got), err)
	}
	if _, _, err := d.RestoreFrom("job", ramp(128, 0), s1.Seq); !errors.Is(err, ErrStateSize) {
		t.Fatalf("warm restore at the old size = %v", err)
	}
}

func TestDeltaTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	d := newTestStore(64, reg)
	state := ramp(64*4, 0)
	if _, err := d.Save("job", nil, state); err != nil {
		t.Fatal(err)
	}
	d.InjectCrash()
	if _, err := d.Save("job", nil, state); !errors.Is(err, ErrCrashInjected) {
		t.Fatal(err)
	}
	s2, err := d.Save("job", nil, state)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := restore(d, "job"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.RestoreFrom("job", state, s2.Seq); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("checkpoint_saves_total").Value(); got != 2 {
		t.Errorf("saves = %d, want the 2 that published", got)
	}
	if got := reg.Counter("checkpoint_bytes_written_total").Value(); got != 2*4*64*8 {
		t.Errorf("bytes written = %d", got)
	}
	if got := reg.Counter("checkpoint_restores_total").Value(); got != 2 {
		t.Errorf("restores = %d", got)
	}
}

func TestDeltaMissingName(t *testing.T) {
	d := NewDeltaStore(DeltaConfig{})
	if _, _, err := d.RestoreFrom("nope", nil, 0); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("RestoreFrom missing = %v", err)
	}
	if _, ok := d.LastSeq("nope"); ok {
		t.Fatal("LastSeq on missing name")
	}
	if _, _, ok := d.Head("nope"); ok {
		t.Fatal("Head on missing name")
	}
}
