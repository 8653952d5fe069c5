package checkpoint

import (
	"errors"
	"testing"

	"github.com/elan-sys/elan/internal/racecheck"
	"github.com/elan-sys/elan/internal/telemetry"
)

func ramp(n int, base float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + float64(i)
	}
	return out
}

func TestDeltaSaveRestoreRoundTrip(t *testing.T) {
	d := NewDeltaStore(DeltaConfig{ChunkElems: 64})
	state := ramp(1000, 0) // 16 chunks, last one partial
	st, err := d.Save("job", []byte("hdr1"), state)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full || st.ChunksWritten != 16 || st.BytesWritten != 8000 {
		t.Fatalf("first save stats = %+v", st)
	}
	hdr, got, rs, err := d.Restore("job")
	if err != nil || string(hdr) != "hdr1" {
		t.Fatalf("restore: %q, %v", hdr, err)
	}
	if len(got) != len(state) {
		t.Fatalf("restored %d elems", len(got))
	}
	for i := range got {
		if got[i] != state[i] {
			t.Fatalf("elem %d: %v != %v", i, got[i], state[i])
		}
	}
	if rs.ChainLen != 1 || rs.ChunksReplayed != 16 {
		t.Fatalf("restore stats = %+v", rs)
	}
}

// TestDeltaSaveWritesOnlyDirtyChunks: a delta save and a warm restore cost
// O(dirty), not O(model). The same two dirty elements in models of 16, 64
// and 256 chunks write the same bytes and chunks, and the warm RestoreFrom
// replays the same chunks, at every size.
func TestDeltaSaveWritesOnlyDirtyChunks(t *testing.T) {
	for _, chunks := range []int{16, 64, 256} {
		d := NewDeltaStore(DeltaConfig{ChunkElems: 64, CompactEvery: 100})
		state := ramp(64*chunks, 0)
		base, err := d.Save("job", nil, state)
		if err != nil {
			t.Fatal(err)
		}
		warm := append([]float64(nil), state...)
		// Touch two elements in distinct chunks.
		state[10] += 0.5
		state[64*9+3] -= 1.25
		st, err := d.Save("job", []byte("h2"), state)
		if err != nil {
			t.Fatal(err)
		}
		if st.Full || st.ChunksDirty != 2 || st.ChunksWritten != 2 {
			t.Fatalf("%d chunks: delta stats = %+v", chunks, st)
		}
		if st.BytesWritten != 2*64*8 || st.BytesSkipped != int64(chunks-2)*64*8 {
			t.Fatalf("%d chunks: byte accounting = %+v", chunks, st)
		}
		_, got, rs, err := d.Restore("job")
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != state[i] {
				t.Fatalf("%d chunks: elem %d: %v != %v", chunks, i, got[i], state[i])
			}
		}
		// Cold restore still decodes every chunk, via the chain.
		if rs.ChainLen != 2 || rs.ChunksReplayed != chunks {
			t.Fatalf("%d chunks: restore stats = %+v", chunks, rs)
		}
		if _, rs, err = d.RestoreFrom("job", warm, base.Seq); err != nil {
			t.Fatal(err)
		}
		if rs.ChunksReplayed != 2 {
			t.Fatalf("%d chunks: warm restore replayed %d chunks, want 2", chunks, rs.ChunksReplayed)
		}
		for i := range warm {
			if warm[i] != state[i] {
				t.Fatalf("%d chunks: warm elem %d: %v != %v", chunks, i, warm[i], state[i])
			}
		}
	}
}

func TestDeltaContentDedup(t *testing.T) {
	// A chunk reverting to a previously stored content re-references the
	// payload instead of rewriting it.
	d := NewDeltaStore(DeltaConfig{ChunkElems: 64, CompactEvery: 100})
	state := ramp(128, 0)
	orig := state[5]
	if _, err := d.Save("job", nil, state); err != nil {
		t.Fatal(err)
	}
	state[5] = 99
	if _, err := d.Save("job", nil, state); err != nil {
		t.Fatal(err)
	}
	state[5] = orig // back to the first save's content
	st, err := d.Save("job", nil, state)
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksDirty != 1 || st.ChunksWritten != 0 || st.BytesWritten != 0 {
		t.Fatalf("dedup stats = %+v", st)
	}
}

func TestDeltaWarmRestoreFrom(t *testing.T) {
	d := NewDeltaStore(DeltaConfig{ChunkElems: 64, CompactEvery: 100})
	state := ramp(64*64, 0) // 64 chunks
	s1, err := d.Save("job", nil, state)
	if err != nil {
		t.Fatal(err)
	}
	// Caller keeps the state as of s1 warm in memory.
	warm := append([]float64(nil), state...)
	// Two more saves touching one chunk each.
	state[0] = -1
	if _, err := d.Save("job", nil, state); err != nil {
		t.Fatal(err)
	}
	state[64*33] = -2
	if _, err := d.Save("job", []byte("h3"), state); err != nil {
		t.Fatal(err)
	}
	hdr, rs, err := d.RestoreFrom("job", warm, s1.Seq)
	if err != nil || string(hdr) != "h3" {
		t.Fatalf("RestoreFrom: %q, %v", hdr, err)
	}
	// Only the two dirty chunks are replayed — recovery work scales with
	// the delta, not the model.
	if rs.ChunksReplayed != 2 || rs.ChainLen != 2 {
		t.Fatalf("warm restore stats = %+v", rs)
	}
	for i := range warm {
		if warm[i] != state[i] {
			t.Fatalf("elem %d: %v != %v", i, warm[i], state[i])
		}
	}
	// A seq not in the chain falls back to a full replay.
	cold := make([]float64, len(state))
	_, rs2, err := d.RestoreFrom("job", cold, 9999)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.ChunksReplayed != 64 {
		t.Fatalf("fallback replayed %d chunks, want 64", rs2.ChunksReplayed)
	}
	// A wrong-size buffer is rejected.
	if _, _, err := d.RestoreFrom("job", make([]float64, 3), s1.Seq); !errors.Is(err, ErrStateSize) {
		t.Fatalf("size mismatch = %v", err)
	}
}

func TestDeltaCompaction(t *testing.T) {
	d := NewDeltaStore(DeltaConfig{ChunkElems: 64, CompactEvery: 4})
	state := ramp(64*8, 0) // 8 chunks
	for i := 0; i < 4; i++ {
		state[0] = float64(i)
		if _, err := d.Save("job", nil, state); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(d.Chain("job")); got != 4 {
		t.Fatalf("chain length = %d, want 4 (full + 3 deltas)", got)
	}
	// The 5th save rolls a new full manifest (period CompactEvery) and
	// compacts: only the 8 live chunks remain.
	state[0] = 42
	st, err := d.Save("job", nil, state)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full || !st.Compacted {
		t.Fatalf("5th save stats = %+v", st)
	}
	if got := len(d.Chain("job")); got != 1 {
		t.Fatalf("chain length after compaction = %d, want 1", got)
	}
	if got := d.ChunkCount(); got != 8 {
		t.Fatalf("chunk count after compaction = %d, want 8", got)
	}
	_, got, _, err := d.Restore("job")
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != state[i] {
			t.Fatalf("elem %d after compaction: %v != %v", i, got[i], state[i])
		}
	}
}

func TestDeltaCrashMidSaveRecoversLastCommit(t *testing.T) {
	d := NewDeltaStore(DeltaConfig{ChunkElems: 64, CompactEvery: 100})
	state := ramp(64*16, 0)
	if _, err := d.Save("job", []byte("h1"), state); err != nil {
		t.Fatal(err)
	}
	committed := append([]float64(nil), state...)

	// Dirty four chunks, crash after two payload writes.
	for _, i := range []int{0, 64 * 4, 64 * 9, 64 * 15} {
		state[i] = -7
	}
	d.InjectCrash(2)
	if _, err := d.Save("job", []byte("h2"), state); !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("crash save = %v", err)
	}

	// Recovery sees the previous commit, bit-identical.
	hdr, got, _, err := d.Restore("job")
	if err != nil || string(hdr) != "h1" {
		t.Fatalf("post-crash restore: %q, %v", hdr, err)
	}
	for i := range got {
		if got[i] != committed[i] {
			t.Fatalf("elem %d corrupted by crashed save: %v != %v", i, got[i], committed[i])
		}
	}

	// The retried save commits normally and dirty detection still works
	// (hashes were not advanced by the failed attempt).
	st, err := d.Save("job", []byte("h2"), state)
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksDirty != 4 {
		t.Fatalf("retry dirty chunks = %d, want 4", st.ChunksDirty)
	}
	hdr, got, _, err = d.Restore("job")
	if err != nil || string(hdr) != "h2" {
		t.Fatalf("post-retry restore: %q, %v", hdr, err)
	}
	for i := range got {
		if got[i] != state[i] {
			t.Fatalf("elem %d after retry: %v != %v", i, got[i], state[i])
		}
	}
}

func TestDeltaModelResizeForcesFull(t *testing.T) {
	d := NewDeltaStore(DeltaConfig{ChunkElems: 64})
	if _, err := d.Save("job", nil, ramp(128, 0)); err != nil {
		t.Fatal(err)
	}
	st, err := d.Save("job", nil, ramp(256, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full {
		t.Fatalf("resized save not full: %+v", st)
	}
	_, got, _, err := d.Restore("job")
	if err != nil || len(got) != 256 {
		t.Fatalf("restore after resize: %d elems, %v", len(got), err)
	}
}

func TestDeltaTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	d := NewDeltaStore(DeltaConfig{ChunkElems: 64, CompactEvery: 100, Metrics: reg})
	state := ramp(64*4, 0)
	if _, err := d.Save("job", nil, state); err != nil {
		t.Fatal(err)
	}
	state[0] = 1e9
	if _, err := d.Save("job", nil, state); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := d.Restore("job"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("checkpoint_saves_total").Value(); got != 2 {
		t.Errorf("saves = %d", got)
	}
	if got := reg.Counter("checkpoint_chunks_written_total").Value(); got != 5 {
		t.Errorf("chunks written = %d, want 5 (4 full + 1 delta)", got)
	}
	if got := reg.Counter("checkpoint_bytes_skipped_total").Value(); got != 3*64*8 {
		t.Errorf("bytes skipped = %d", got)
	}
	if got := reg.Counter("checkpoint_restore_chunks_total").Value(); got != 4 {
		t.Errorf("restore chunks = %d", got)
	}
}

func TestDeltaMissingName(t *testing.T) {
	d := NewDeltaStore(DeltaConfig{})
	if _, _, _, err := d.Restore("nope"); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Restore missing = %v", err)
	}
	if _, _, err := d.RestoreFrom("nope", nil, 0); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("RestoreFrom missing = %v", err)
	}
	if _, ok := d.LastSeq("nope"); ok {
		t.Fatal("LastSeq on missing name")
	}
}

// TestChunkHashZeroAllocs pins the dirty-detection scan: hashing a chunk
// is pure arithmetic over the float bits.
func TestChunkHashZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race CI job")
	}
	vals := ramp(4096, 0)
	var sink uint64
	if avg := testing.AllocsPerRun(1000, func() {
		sink = hashChunk(vals)
	}); avg != 0 {
		t.Fatalf("%v allocs per chunk hash, want 0", avg)
	}
	_ = sink
}

// TestChunkHashRoundValuesDoNotCollide: chunks of short-mantissa values
// differ only in the top bits of each word. The hash must still tell them
// apart, or a changed chunk passes for a clean (or already stored) one and
// a restore silently returns other content. Found by TestDeltaStoreModel;
// before the words were folded this loop collided some eleven thousand
// times.
func TestChunkHashRoundValuesDoNotCollide(t *testing.T) {
	seen := make(map[uint64][4]float64)
	for a := 0; a < 40; a++ {
		for b := 0; b < 40; b++ {
			for c := 0; c < 40; c++ {
				vals := [4]float64{float64(a) * 0.25, float64(b) + 0.5, float64(c) * 0.125, 1}
				h := hashChunk(vals[:])
				if prev, ok := seen[h]; ok {
					t.Fatalf("chunks %v and %v share hash %x", prev, vals, h)
				}
				seen[h] = vals
			}
		}
	}
}
