package worker

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"github.com/elan-sys/elan/internal/checkpoint"
	"github.com/elan-sys/elan/internal/topology"
)

// Fleet delta checkpointing (DESIGN §13): SaveCheckpoint hands the lead
// replica's state arena to the delta store, which persists only the chunks
// the optimizer moved since the previous save.
// RestoreCheckpoint is the crash-recovery inverse; it prefers the warm
// path — the fleet keeps the last committed state vector in memory, so
// after an AM crash (RecoverAM) only the manifest-chain tail since that
// commit is deserialized, keeping recovery work proportional to the delta
// rather than the model.

// fleetCkptHeader is the runtime (non-tensor) state riding in the
// manifest header.
type fleetCkptHeader struct {
	Iter   int
	TBS    int
	LR     float64
	Cursor int
}

// ErrNoCheckpointStore is returned by checkpoint calls on a fleet built
// without FleetConfig.Checkpoints.
var ErrNoCheckpointStore = errors.New("worker: fleet has no checkpoint store")

// SaveCheckpoint delta-saves the fleet's training state (lead replica's
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
	var buf bytes.Buffer
	h := fleetCkptHeader{Iter: f.iter, TBS: f.cfg.TotalBatch, LR: f.currentLR(), Cursor: f.loader.Cursor()}
	if err := gob.NewEncoder(&buf).Encode(h); err != nil {
		return checkpoint.SaveStats{}, fmt.Errorf("worker: encode checkpoint header: %w", err)
	}
	// The store reads the lead replica's arena in place: the agent is idle
	// between commands while f.mu is held, so nothing writes it.
	state := src.rep.State()
	stats, err := f.cfg.Checkpoints.Save(f.ckptName, buf.Bytes(), state)
	if err != nil {
		// A failed save (e.g. a crash injected between chunk writes and
		// the manifest commit) leaves the previous chain — and our warm
		// cache of it — authoritative.
		return stats, err
	}
	if len(f.ckptState) != len(state) {
		f.ckptState = make([]float64, len(state))
	}
	checkpoint.CopyState(f.ckptState, state)
	f.ckptSeq = stats.Seq
	f.lifeSpan.Event("checkpoint-save")
	f.flight.RecordEvent("fleet-ckpt", "save", f.clk.Now())
	return stats, nil
}

// RestoreCheckpoint installs the last committed checkpoint into every live
// agent and restores the runtime state. When the warm base (the state as
// of the fleet's own last committed save) is available, only the chunks
// committed after it are deserialized; a fleet that has never saved — or
// whose model shape changed — falls back to replaying the full chain.
func (f *Fleet) RestoreCheckpoint() (checkpoint.RestoreStats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cfg.Checkpoints == nil {
		return checkpoint.RestoreStats{}, ErrNoCheckpointStore
	}
	ds := f.cfg.Checkpoints
	var (
		hdrB  []byte
		state []float64
		stats checkpoint.RestoreStats
		err   error
	)
	if f.ckptState != nil {
		hdrB, stats, err = ds.RestoreFrom(f.ckptName, f.ckptState, f.ckptSeq)
		if err == nil {
			state = f.ckptState
		} else if !errors.Is(err, checkpoint.ErrStateSize) {
			return checkpoint.RestoreStats{}, err
		}
	}
	if state == nil {
		hdrB, state, stats, err = ds.Restore(f.ckptName)
		if err != nil {
			return checkpoint.RestoreStats{}, err
		}
		f.ckptState = append(f.ckptState[:0], state...)
	}
	f.ckptSeq = stats.Seq

	var h fleetCkptHeader
	if err := gob.NewDecoder(bytes.NewReader(hdrB)).Decode(&h); err != nil {
		return checkpoint.RestoreStats{}, fmt.Errorf("worker: decode checkpoint header: %w", err)
	}
	// The first live agent takes the restored state from host memory; the
	// others replicate it from that agent the way joiners do.
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
	if len(live) > 0 {
		err := live[0].send(command{kind: installCmd, state: state}).err
		if err == nil {
			err = f.replicateLocked(live[:1], live[1:], ids, nil)
		}
		if err != nil {
			return checkpoint.RestoreStats{}, fmt.Errorf("worker: install checkpoint: %w", err)
		}
	}
	f.iter = h.Iter
	f.lr = h.LR
	f.lrRampLen = 0
	if err := f.loader.SetCursor(h.Cursor); err != nil {
		return checkpoint.RestoreStats{}, fmt.Errorf("worker: restore cursor: %w", err)
	}
	// The batch size is restored only when the surviving worker count can
	// shard it; otherwise the current (adjusted) batch stays in force.
	if h.TBS > 0 && len(f.agents) > 0 && h.TBS%len(f.agents) == 0 {
		f.cfg.TotalBatch = h.TBS
	}
	f.lifeSpan.Event("checkpoint-restore")
	f.flight.RecordEvent("fleet-ckpt", "restore", f.clk.Now())
	return stats, nil
}

// CheckpointSeq returns the manifest seq of the fleet's last committed
// save (0 if none).
func (f *Fleet) CheckpointSeq() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ckptSeq
}
