package worker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/elan-sys/elan/internal/checkpoint"
	"github.com/elan-sys/elan/internal/scaling"
	"github.com/elan-sys/elan/internal/topology"
)

// Fleet checkpointing (DESIGN §13): SaveCheckpoint hands the lead replica's
// state arena to the checkpoint store, which copies it whole and publishes
// it as the fleet's one snapshot. RestoreCheckpoint is the crash-recovery
// inverse: the store copies the published snapshot straight into the first
// live agent's arena, and the other agents replicate it from that agent.
// The store's snapshot is the only copy of the checkpoint; the fleet keeps
// none of its own.

// CheckpointHeader is the runtime (non-tensor) state riding in the
// snapshot header. LR is the whole schedule, so a restore mid-ramp goes on
// ramping.
type CheckpointHeader struct {
	Iter   int
	TBS    int
	LR     scaling.LRSchedule
	Cursor int
}

// Append appends the header's encoding to b: varints Iter and TBS, the
// bits of LR.LR0 and LR.LRT as 8 little-endian bytes each (so the rates
// come back exact), then varints LR.T0, LR.T and Cursor.
func (h CheckpointHeader) Append(b []byte) []byte {
	b = binary.AppendVarint(b, int64(h.Iter))
	b = binary.AppendVarint(b, int64(h.TBS))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(h.LR.LR0))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(h.LR.LRT))
	b = binary.AppendVarint(b, int64(h.LR.T0))
	b = binary.AppendVarint(b, int64(h.LR.T))
	return binary.AppendVarint(b, int64(h.Cursor))
}

// errBadHeader is DecodeCheckpointHeader's refusal.
var errBadHeader = errors.New("worker: malformed checkpoint header")

// DecodeCheckpointHeader decodes what Append wrote. It refuses truncated
// input, trailing bytes and a varint that does not fit an int.
func DecodeCheckpointHeader(b []byte) (CheckpointHeader, error) {
	ok := true
	varint := func() int {
		v, n := binary.Varint(b)
		if n <= 0 || int64(int(v)) != v {
			ok = false
			return 0
		}
		b = b[n:]
		return int(v)
	}
	float := func() float64 {
		if len(b) < 8 {
			ok = false
			return 0
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
		return v
	}
	var h CheckpointHeader
	h.Iter, h.TBS = varint(), varint()
	h.LR.LR0, h.LR.LRT = float(), float()
	h.LR.T0, h.LR.T, h.Cursor = varint(), varint(), varint()
	if !ok || len(b) != 0 {
		return CheckpointHeader{}, errBadHeader
	}
	return h, nil
}

// ErrNoCheckpointStore is returned by checkpoint calls on a fleet built
// without FleetConfig.Checkpoints.
var ErrNoCheckpointStore = errors.New("worker: fleet has no checkpoint store")

// SaveCheckpoint saves the fleet's training state (lead replica's
// parameters and optimizer state, iteration, batch size, learning rate,
// loader cursor) into the configured checkpoint store.
func (f *Fleet) SaveCheckpoint() (checkpoint.SaveStats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cfg.Checkpoints == nil {
		return checkpoint.SaveStats{}, ErrNoCheckpointStore
	}
	var src *Agent
	for _, a := range f.agents {
		if a.alive() {
			src = a
			break
		}
	}
	if src == nil {
		return checkpoint.SaveStats{}, fmt.Errorf("worker: no live agent to checkpoint from")
	}
	h := CheckpointHeader{Iter: f.iter, TBS: f.cfg.TotalBatch, LR: *f.lrSched, Cursor: f.loader.Cursor()}
	// The store reads the lead replica's arena in place: the agent is idle
	// between commands while f.mu is held, so nothing writes it.
	stats, err := f.cfg.Checkpoints.Save(ckptName, h.Append(nil), src.rep.State())
	if err != nil {
		// A failed save (e.g. a crash injected before the publish) leaves
		// the previous snapshot authoritative.
		return stats, err
	}
	f.ckptSeq = stats.Seq
	f.flight.RecordEvent("fleet-ckpt", "save", f.clk.Now())
	return stats, nil
}

// RestoreCheckpoint installs the last committed checkpoint into every live
// agent and restores the runtime state. It is all or nothing: the header and
// the state length are checked against this fleet before any agent or the
// loader is touched.
func (f *Fleet) RestoreCheckpoint() (checkpoint.RestoreStats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ds := f.cfg.Checkpoints
	if ds == nil {
		return checkpoint.RestoreStats{}, ErrNoCheckpointStore
	}
	h, sched, err := f.checkpointHeaderLocked()
	if err != nil {
		return checkpoint.RestoreStats{}, err
	}
	var live []*Agent
	var ids []topology.GPUID
	for i, a := range f.agents {
		if a.alive() {
			live = append(live, a)
			if f.gpus != nil {
				ids = append(ids, f.gpus[i].ID)
			}
		}
	}
	if len(live) == 0 {
		return checkpoint.RestoreStats{}, fmt.Errorf("worker: no live agent to restore into")
	}
	// The store copies the snapshot into the first live agent's arena in
	// place, as SaveCheckpoint reads the lead arena: the agent is idle
	// between commands while f.mu is held. The other agents replicate from
	// it the way joiners do.
	_, stats, err := ds.RestoreFrom(ckptName, live[0].rep.State(), 0)
	if err != nil {
		return checkpoint.RestoreStats{}, err
	}
	f.ckptSeq = stats.Seq
	if err := f.replicateLocked(live[:1], live[1:], ids, nil); err != nil {
		return checkpoint.RestoreStats{}, fmt.Errorf("worker: install checkpoint: %w", err)
	}
	f.iter, f.lrSched = h.Iter, sched
	_ = f.loader.SetCursor(h.Cursor) // in range: checked with the header
	// The batch size is restored only when the live agents, not yet swept
	// of crashed ones, can shard it; else the current batch stays in force.
	if h.TBS > 0 && h.TBS%len(live) == 0 {
		f.cfg.TotalBatch = h.TBS
	}
	f.flight.RecordEvent("fleet-ckpt", "restore", f.clk.Now())
	return stats, nil
}

// checkpointHeaderLocked decodes the header of the newest committed
// checkpoint and checks it against the fleet: the state must fit the
// replicas' arenas, the cursor the dataset, and the learning-rate schedule
// must be a valid one, which it returns built.
func (f *Fleet) checkpointHeaderLocked() (CheckpointHeader, *scaling.LRSchedule, error) {
	header, numElems, ok := f.cfg.Checkpoints.Head(ckptName)
	if !ok {
		return CheckpointHeader{}, nil, fmt.Errorf("%w: %q", checkpoint.ErrNoCheckpoint, ckptName)
	}
	h, err := DecodeCheckpointHeader(header)
	if err != nil {
		return h, nil, err
	}
	if len(f.agents) == 0 {
		return h, nil, fmt.Errorf("worker: no agent to restore into")
	}
	if want := len(f.agents[0].rep.State()); numElems != want {
		return h, nil, fmt.Errorf("worker: checkpoint state of %d values, the replicas hold %d", numElems, want)
	}
	if n := f.cfg.Dataset.N(); h.Cursor < 0 || h.Cursor >= n {
		return h, nil, fmt.Errorf("worker: checkpoint cursor %d out of [0, %d)", h.Cursor, n)
	}
	sched, err := scaling.NewLRSchedule(h.LR.LR0, h.LR.LRT, h.LR.T0, h.LR.T)
	if err != nil {
		return h, nil, fmt.Errorf("worker: checkpoint LR schedule: %w", err)
	}
	return h, sched, nil
}

// CheckpointSeq returns the store seq of the fleet's last committed
// save (0 if none).
func (f *Fleet) CheckpointSeq() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ckptSeq
}
