package worker

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/elan-sys/elan/internal/checkpoint"
)

func checkpointFleet(t *testing.T, ds *checkpoint.DeltaStore) *Fleet {
	t.Helper()
	guardGoroutines(t)
	f, err := NewFleet(FleetConfig{
		Dataset:     dataset(t, 1024),
		LayerSizes:  []int{4, 16, 3},
		Workers:     2,
		TotalBatch:  24,
		LR:          0.05,
		Momentum:    0.9,
		Seed:        21,
		Checkpoints: ds,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

// exportState snapshots the lead replica's state arena. The caller is not
// stepping the fleet, so the agent is idle.
func exportState(t *testing.T, f *Fleet) []float64 {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.agents[0].rep.State())
}

// TestFleetCheckpointRestoreBitIdentical trains, saves, trains on, then
// restores: replicas, iteration and loader cursor must be exactly the
// checkpointed ones, and the restore must use the warm path (only the
// chunks of the post-save deltas are replayed — here zero, since nothing
// was committed after the save).
func TestFleetCheckpointRestoreBitIdentical(t *testing.T) {
	ds := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{ChunkElems: 16, CompactEvery: 100})
	f := checkpointFleet(t, ds)
	for i := 0; i < 5; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st, err := f.SaveCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full || st.ChunksWritten == 0 {
		t.Fatalf("first save stats = %+v", st)
	}
	want := exportState(t, f)
	wantIter := f.Iteration()

	for i := 0; i < 4; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := f.RestoreCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Warm restore: the fleet's cached base is the committed state, so no
	// chunks needed replaying at all.
	if rs.ChunksReplayed != 0 {
		t.Fatalf("warm restore replayed %d chunks, want 0: %+v", rs.ChunksReplayed, rs)
	}
	if f.Iteration() != wantIter {
		t.Fatalf("iteration = %d, want %d", f.Iteration(), wantIter)
	}
	got := exportState(t, f)
	if len(got) != len(want) {
		t.Fatalf("state sizes %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("state[%d] = %v, want %v (not bit-identical)", i, got[i], want[i])
		}
	}
	if !f.ReplicasConsistent() {
		t.Fatal("replicas diverged after restore")
	}
	if _, err := f.Step(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetAMCrashMidDeltaSaveRecovers is the acceptance scenario: the AM
// dies between a delta save's chunk writes and its manifest commit. The
// successor incarnation recovers via CAS, restores from the manifest
// chain, and lands bit-identical on the last *committed* save — the torn
// one invisible.
func TestFleetAMCrashMidDeltaSaveRecovers(t *testing.T) {
	ds := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{ChunkElems: 16, CompactEvery: 100})
	f := checkpointFleet(t, ds)
	for i := 0; i < 3; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	committed := exportState(t, f)
	committedIter := f.Iteration()

	// Train on, then crash mid-save: chunk writes land, no manifest.
	for i := 0; i < 2; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ds.InjectCrash(1)
	if _, err := f.SaveCheckpoint(); !errors.Is(err, checkpoint.ErrCrashInjected) {
		t.Fatalf("crash save = %v", err)
	}
	if _, err := f.CrashAM(); err != nil {
		t.Fatal(err)
	}
	if err := f.RecoverAM(); err != nil {
		t.Fatal(err)
	}
	rs, err := f.RestoreCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if f.Iteration() != committedIter {
		t.Fatalf("iteration = %d, want %d", f.Iteration(), committedIter)
	}
	got := exportState(t, f)
	for i := range committed {
		if got[i] != committed[i] {
			t.Fatalf("state[%d] = %v, want %v (torn save leaked)", i, got[i], committed[i])
		}
	}
	if rs.Seq == 0 {
		t.Fatalf("restore stats = %+v", rs)
	}
	// The fleet keeps training and the next save commits cleanly.
	if _, err := f.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetWarmRestoreReplaysOnlyDelta: saves bracket further training, so
// recovering to the newest commit from the older warm base replays only
// the chunks the optimizer touched in between — not the whole model.
func TestFleetWarmRestoreReplaysOnlyDelta(t *testing.T) {
	ds := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{ChunkElems: 16, CompactEvery: 100})
	f := checkpointFleet(t, ds)
	if _, err := f.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Step(); err != nil {
		t.Fatal(err)
	}
	st, err := f.SaveCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := f.RestoreCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	// The warm base is the second save itself: zero replay. More
	// interesting: force the base back to the first save and confirm the
	// replay equals the second save's dirty set, not the full model.
	f.mu.Lock()
	f.ckptSeq = st.Seq - 1
	f.mu.Unlock()
	rs, err = f.RestoreCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Dense SGD moves every parameter each step, so the delta here spans
	// all chunks; what matters is that the warm replay equals exactly the
	// recorded dirty set of the chain tail (sparse workloads shrink it).
	if rs.ChunksReplayed != st.ChunksDirty {
		t.Fatalf("replayed %d chunks, want the delta's %d", rs.ChunksReplayed, st.ChunksDirty)
	}
}

func TestFleetCheckpointWithoutStore(t *testing.T) {
	f := fleet(t, 2, 24, nil)
	if _, err := f.SaveCheckpoint(); !errors.Is(err, ErrNoCheckpointStore) {
		t.Fatalf("SaveCheckpoint = %v", err)
	}
	if _, err := f.RestoreCheckpoint(); !errors.Is(err, ErrNoCheckpointStore) {
		t.Fatalf("RestoreCheckpoint = %v", err)
	}
}

// fleetState is everything a restore may change, read bit for bit.
type fleetState struct {
	arenas       [][]float64
	iter, cursor int
	lrBits       uint64
	tbs          int
	ckptState    []float64
	ckptSeq      int64
}

func readFleetState(f *Fleet) fleetState {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := fleetState{
		iter: f.iter, cursor: f.loader.Cursor(), lrBits: math.Float64bits(f.lrSched.At(f.iter)),
		tbs: f.cfg.TotalBatch, ckptState: slices.Clone(f.ckptState), ckptSeq: f.ckptSeq,
	}
	for _, a := range f.agents {
		s.arenas = append(s.arenas, slices.Clone(a.rep.State()))
	}
	return s
}

// sameBits compares float vectors by their bits, so that NaNs compare too.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestFleetRestoreCheckpointIsAtomic commits checkpoints that this fleet
// cannot take — a cursor out of the dataset, an invalid learning-rate
// schedule, a state of another length — over a good one. Each restore must
// fail before anything changed: arenas, iteration, learning rate, cursor and
// the warm base are bit for bit as before. A batch size the fleet's workers
// cannot shard is no error: the restore goes through and keeps the batch.
func TestFleetRestoreCheckpointIsAtomic(t *testing.T) {
	ds := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{ChunkElems: 16})
	f := checkpointFleet(t, ds)
	steps(t, f, 3)
	if err := f.SetTotalBatch(48, 10, true); err != nil {
		t.Fatal(err)
	}
	steps(t, f, 2)
	if _, err := f.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	steps(t, f, 1) // the fleet moves past its save: a restore would show

	f.mu.Lock()
	good := fleetCkptHeader{Iter: f.iter, TBS: f.cfg.TotalBatch, LR: *f.lrSched, Cursor: f.loader.Cursor()}
	state := slices.Clone(f.agents[0].rep.State())
	f.mu.Unlock()
	for _, tc := range []struct {
		name   string
		edit   func(*fleetCkptHeader)
		state  []float64
		refuse bool
	}{
		{"bad cursor", func(h *fleetCkptHeader) { h.Cursor = 1 << 20 }, state, true},
		{"bad LR", func(h *fleetCkptHeader) { h.LR.LR0 = -1 }, state, true},
		{"wrong state length", func(*fleetCkptHeader) {}, state[:len(state)-1], true},
		{"indivisible TBS", func(h *fleetCkptHeader) { h.TBS = 7 }, state, false},
	} {
		h := good
		tc.edit(&h)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(h); err != nil {
			t.Fatal(err)
		}
		if _, err := ds.Save(ckptName, buf.Bytes(), tc.state); err != nil {
			t.Fatal(err)
		}
		before := readFleetState(f)
		_, err := f.RestoreCheckpoint()
		if tc.refuse != (err != nil) {
			t.Fatalf("%s: RestoreCheckpoint = %v", tc.name, err)
		}
		after := readFleetState(f)
		if !slices.EqualFunc(after.arenas, before.arenas, sameBits) {
			t.Errorf("%s: the restore changed a replica", tc.name)
		}
		if after.iter != before.iter || after.lrBits != before.lrBits || after.cursor != before.cursor || after.tbs != before.tbs {
			t.Errorf("%s: iteration, LR, cursor, batch %d %x %d %d, were %d %x %d %d", tc.name,
				after.iter, after.lrBits, after.cursor, after.tbs, before.iter, before.lrBits, before.cursor, before.tbs)
		}
		if tc.refuse && (after.ckptSeq != before.ckptSeq || !sameBits(after.ckptState, before.ckptState)) {
			t.Errorf("%s: the refused restore moved the warm base", tc.name)
		}
	}
}
