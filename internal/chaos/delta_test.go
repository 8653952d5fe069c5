package chaos

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/elan-sys/elan/internal/checkpoint"
)

// TestChaosDeltaCheckpointRecovery is the tentpole acceptance scenario run
// through the harness: periodic saves ride the chaos run, a store crash is
// injected mid-save (payload encoded, never published), the AM crashes and
// a successor recovers — and the fleet restores bit-identical to the last
// *committed* snapshot. Bit-identity is proven through the store: a save
// taken immediately after the restore publishes the lead arena, and its
// header bytes and state must equal the committed snapshot's bit for bit.
// published reads the fleet's published snapshot out of ds: its header and
// its state.
func published(t *testing.T, ds *checkpoint.DeltaStore) ([]byte, []float64) {
	t.Helper()
	_, n, _ := ds.Head("fleet")
	state := make([]float64, n)
	header, _, err := ds.RestoreFrom("fleet", state, 0)
	if err != nil {
		t.Fatalf("RestoreFrom: %v", err)
	}
	return header, state
}

func TestChaosDeltaCheckpointRecovery(t *testing.T) {
	guardGoroutines(t)
	ds := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{})
	h, err := New(Config{
		Workers: 2,
		Schedule: Schedule{Seed: 5, Faults: []Fault{
			{Iter: 6, Kind: AMCrash},
			{Iter: 7, Kind: AMRecover},
		}},
		Checkpoints:     ds,
		CheckpointEvery: 3,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer h.Close()

	// Iters 0..4: one periodic save commits after iter 2.
	if err := h.Run(5); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := h.Fleet.CheckpointSeq(); got == 0 {
		t.Fatal("no committed checkpoint after first window")
	}
	committedSeq := h.Fleet.CheckpointSeq()
	wantHeader, want := published(t, ds)

	// The next periodic save (after iter 5) dies between its copy and
	// its publish; the AM crashes at 6 and recovers at 7.
	ds.InjectCrash()
	if err := h.Run(3); err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := h.Report()
	if len(r.CheckpointErrors) != 1 || !strings.Contains(r.CheckpointErrors[0], checkpoint.ErrCrashInjected.Error()) {
		t.Fatalf("CheckpointErrors = %v, want one injected crash", r.CheckpointErrors)
	}
	if h.Fleet.CheckpointSeq() != committedSeq {
		t.Fatalf("torn save advanced the committed seq: %d -> %d", committedSeq, h.Fleet.CheckpointSeq())
	}
	if head, ok := ds.LastSeq("fleet"); !ok || head != committedSeq {
		t.Fatalf("store head = %d (ok=%v), want last commit %d", head, ok, committedSeq)
	}

	// Recover from the published snapshot, then prove bit-identity:
	// re-saving the restored lead arena publishes the committed header and
	// state again. The torn save's copy is invisible.
	rs, err := h.Fleet.RestoreCheckpoint()
	if err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	if rs.Seq != committedSeq {
		t.Fatalf("restored seq %d, want %d", rs.Seq, committedSeq)
	}
	if _, err := h.Fleet.SaveCheckpoint(); err != nil {
		t.Fatalf("post-restore save: %v", err)
	}
	gotHeader, got := published(t, ds)
	if !bytes.Equal(gotHeader, wantHeader) {
		t.Fatal("restored runtime header differs from the committed snapshot's")
	}
	if !slices.EqualFunc(got, want, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
		t.Fatal("restored lead arena differs from the committed snapshot's state")
	}

	// Training continues, and the next periodic save commits cleanly.
	if err := h.Run(3); err != nil {
		t.Fatalf("Run after restore: %v", err)
	}
	r = h.Report()
	if !r.Consistent {
		t.Fatal("replicas inconsistent after checkpoint recovery")
	}
	if r.AMDown {
		t.Fatal("AM still down")
	}
	if r.CheckpointSeq <= committedSeq {
		t.Fatalf("no clean commit after recovery: seq %d", r.CheckpointSeq)
	}
	if r.CheckpointSaves < 2 {
		t.Fatalf("CheckpointSaves = %d, want >= 2", r.CheckpointSaves)
	}
}

// TestChaosCheckpointEventsDeterministic: ckpt.save lines are schedule
// functions (iteration cadence), so two same-config runs — even with a
// fault storm — produce byte-identical event logs including the saves.
func TestChaosCheckpointEventsDeterministic(t *testing.T) {
	guardGoroutines(t)
	run := func() string {
		t.Helper()
		h, err := New(Config{
			Workers: 2,
			Schedule: Schedule{Seed: 11, Faults: []Fault{
				{Iter: 1, Kind: WorkerCrash, Target: "agent-1"},
				{Iter: 3, Kind: WorkerRestart, Target: "agent-1"},
			}},
			Checkpoints:     checkpoint.NewDeltaStore(checkpoint.DeltaConfig{}),
			CheckpointEvery: 2,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer h.Close()
		if err := h.Run(6); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return FormatEvents(h.Events())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("event logs differ:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, "ckpt.save") {
		t.Fatalf("no ckpt.save events logged:\n%s", a)
	}
}
