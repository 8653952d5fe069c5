package worker

import (
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/elan-sys/elan/internal/checkpoint"
	"github.com/elan-sys/elan/internal/data"
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
// checkpointed ones, and the restore copies the published snapshot once,
// whole, whether or not the fleet saved it itself.
func TestFleetCheckpointRestoreBitIdentical(t *testing.T) {
	ds := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{})
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
	if st.ChunksWritten == 0 || st.ChunksWritten != st.ChunksTotal {
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
	if rs.Seq != st.Seq || rs.Bytes != 8*int64(len(want)) {
		t.Fatalf("restore stats = %+v; want seq %d, %d bytes copied", rs, st.Seq, 8*len(want))
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
// dies between a save's copy and its publish. The successor incarnation
// recovers via CAS, restores the published snapshot, and lands
// bit-identical on the last *committed* save — the torn one invisible.
func TestFleetAMCrashMidDeltaSaveRecovers(t *testing.T) {
	ds := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{})
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

	// Train on, then crash mid-save: the copy lands, no publish.
	for i := 0; i < 2; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ds.InjectCrash()
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
	ckptSeq      int64
}

func readFleetState(f *Fleet) fleetState {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := fleetState{
		iter: f.iter, cursor: f.loader.Cursor(), lrBits: math.Float64bits(f.lrSched.At(f.iter)),
		tbs: f.cfg.TotalBatch, ckptSeq: f.ckptSeq,
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
// the fleet's checkpoint seq are bit for bit as before. A batch size the fleet's workers
// cannot shard is no error: the restore goes through and keeps the batch.
func TestFleetRestoreCheckpointIsAtomic(t *testing.T) {
	ds := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{})
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
	good := CheckpointHeader{Iter: f.iter, TBS: f.cfg.TotalBatch, LR: *f.lrSched, Cursor: f.loader.Cursor()}
	state := slices.Clone(f.agents[0].rep.State())
	f.mu.Unlock()
	for _, tc := range []struct {
		name   string
		edit   func(*CheckpointHeader)
		state  []float64
		refuse bool
	}{
		{"bad cursor", func(h *CheckpointHeader) { h.Cursor = 1 << 20 }, state, true},
		{"bad LR", func(h *CheckpointHeader) { h.LR.LR0 = -1 }, state, true},
		{"wrong state length", func(*CheckpointHeader) {}, state[:len(state)-1], true},
		{"indivisible TBS", func(h *CheckpointHeader) { h.TBS = 7 }, state, false},
	} {
		h := good
		tc.edit(&h)
		if _, err := ds.Save(ckptName, h.Append(nil), tc.state); err != nil {
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
		if tc.refuse && after.ckptSeq != before.ckptSeq {
			t.Errorf("%s: the refused restore moved the checkpoint seq", tc.name)
		}
	}
}

// TestFleetRestoreAfterCrashKeepsShardableBatch restores a batch of 8
// saved by 4 workers into a fleet that has since moved to 12 and lost a
// worker it has not swept yet. The checkpointed batch cannot be split over
// the 3 survivors, so the restore keeps 12, and the fleet trains on.
func TestFleetRestoreAfterCrashKeepsShardableBatch(t *testing.T) {
	guardGoroutines(t)
	f, err := NewFleet(FleetConfig{
		Dataset:     dataset(t, 256),
		LayerSizes:  []int{4, 8, 3},
		Workers:     4,
		TotalBatch:  8,
		LR:          0.05,
		Momentum:    0.9,
		Seed:        21,
		Checkpoints: checkpoint.NewDeltaStore(checkpoint.DeltaConfig{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	steps(t, f, 2)
	if _, err := f.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if err := f.SetTotalBatch(12, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := f.CrashWorker("agent-3"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RestoreCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if got := f.TotalBatch(); got != 12 {
		t.Fatalf("restore into 3 survivors adopted batch %d, want 12 kept", got)
	}
	steps(t, f, 2)
	if got := f.NumWorkers(); got != 3 {
		t.Fatalf("%d workers after the sweep, want 3", got)
	}
}

// FuzzCheckpointHeader commits arbitrary header bytes under the fleet's
// checkpoint name, over a state of the right length, and restores. The
// restore must not panic. It either fails and leaves the arenas, the
// iteration, the loader cursor and the checkpoint seq as they were, or it
// restores a header that checkpointHeaderLocked accepts: the fleet then
// holds that header's iteration and cursor.
func FuzzCheckpointHeader(f *testing.F) {
	d, err := data.GenGaussianMixture(21, 1024, 4, 3)
	if err != nil {
		f.Fatal(err)
	}
	ds := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{})
	fl, err := NewFleet(FleetConfig{
		Dataset: d, LayerSizes: []int{4, 16, 3}, Workers: 2, TotalBatch: 24,
		LR: 0.05, Momentum: 0.9, Seed: 21, Checkpoints: ds,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(fl.Close)
	for i := 0; i < 3; i++ {
		if _, err := fl.Step(); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := fl.SaveCheckpoint(); err != nil {
		f.Fatal(err)
	}
	fl.mu.Lock()
	good := CheckpointHeader{Iter: fl.iter, TBS: fl.cfg.TotalBatch, LR: *fl.lrSched, Cursor: fl.loader.Cursor()}
	state := slices.Clone(fl.agents[0].rep.State())
	fl.mu.Unlock()
	encode := func(h CheckpointHeader) []byte { return h.Append(nil) }
	f.Add(encode(good))
	f.Add(encode(good)[:len(encode(good))/2])
	bad := good
	bad.Cursor = -1
	f.Add(encode(bad))
	bad = good
	bad.LR.T = -5
	f.Add(encode(bad))
	bad = good
	bad.Iter, bad.TBS = 1<<40, 3
	f.Add(encode(bad))
	f.Add([]byte{})
	f.Add([]byte{0x03, 0xff, 0x81, 0x00})
	f.Fuzz(func(t *testing.T, header []byte) {
		if _, err := ds.Save(ckptName, header, state); err != nil {
			t.Fatal(err)
		}
		before := readFleetState(fl)
		_, err := fl.RestoreCheckpoint()
		after := readFleetState(fl)
		if err != nil {
			if !slices.EqualFunc(after.arenas, before.arenas, sameBits) {
				t.Fatalf("refused restore (%v) changed a replica", err)
			}
			if after.iter != before.iter || after.cursor != before.cursor {
				t.Fatalf("refused restore (%v) moved iteration or cursor: %d %d, were %d %d", err, after.iter, after.cursor, before.iter, before.cursor)
			}
			if after.ckptSeq != before.ckptSeq {
				t.Fatalf("refused restore (%v) moved the checkpoint seq", err)
			}
			return
		}
		fl.mu.Lock()
		h, _, err := fl.checkpointHeaderLocked()
		fl.mu.Unlock()
		if err != nil {
			t.Fatalf("restored a header checkpointHeaderLocked refuses: %v", err)
		}
		if after.iter != h.Iter || after.cursor != h.Cursor {
			t.Fatalf("restored iteration %d, cursor %d; the header holds %d, %d", after.iter, after.cursor, h.Iter, h.Cursor)
		}
	})
}
