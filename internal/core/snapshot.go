package core

import (
	"fmt"

	"github.com/elan-sys/elan/internal/scaling"
)

// Snapshot is the complete serializable training state of a LiveJob — what
// the S&R baseline writes to the shared filesystem and what a migrated job
// carries to its destination. It captures every state kind of Table II:
// model parameters, optimizer state, the data-loading cursor, and the
// runtime information (iteration, batch size, learning-rate schedule).
type Snapshot struct {
	Params    []float64
	OptState  []float64
	Cursor    int
	Iteration int
	TBS       int
	LR0, LRT  float64
	LRTime0   int
	LRRamp    int
}

// Snapshot captures the job's training state. Because of the data-parallel
// invariant, worker 0's replica represents the whole job.
func (lj *LiveJob) Snapshot() (*Snapshot, error) {
	lj.mu.Lock()
	defer lj.mu.Unlock()
	w := lj.workers[0]
	return &Snapshot{
		Params:    w.net.FlattenParams(nil),
		OptState:  w.opt.FlattenState(nil),
		Cursor:    lj.loader.Cursor(),
		Iteration: lj.iter,
		TBS:       lj.tbs,
		LR0:       lj.lrSched.LR0,
		LRT:       lj.lrSched.LRT,
		LRTime0:   lj.lrSched.T0,
		LRRamp:    lj.lrSched.T,
	}, nil
}

// RestoreSnapshot installs a snapshot into the job: every worker replica
// receives the parameters and optimizer state, and the loader cursor and
// runtime info are restored. This is the "load" step of an S&R restart and
// the arrival step of a migration.
func (lj *LiveJob) RestoreSnapshot(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("core: nil snapshot")
	}
	lj.mu.Lock()
	defer lj.mu.Unlock()
	if s.TBS <= 0 || s.TBS%len(lj.workers) != 0 {
		return fmt.Errorf("core: snapshot TBS %d not divisible by %d workers",
			s.TBS, len(lj.workers))
	}
	sched, err := scaling.NewLRSchedule(s.LR0, s.LRT, s.LRTime0, s.LRRamp)
	if err != nil {
		return fmt.Errorf("core: snapshot LR schedule: %w", err)
	}
	// Lengths first: a snapshot of another model must not overwrite the
	// first worker's parameters before its optimizer state is refused.
	if w := lj.workers[0]; len(s.Params) != w.net.NumParams() || len(s.OptState) != w.opt.StateElements() {
		return fmt.Errorf("core: snapshot of %d parameters and %d optimizer values, want %d and %d",
			len(s.Params), len(s.OptState), w.net.NumParams(), w.opt.StateElements())
	}
	for _, w := range lj.workers {
		if err := w.net.LoadParams(s.Params); err != nil {
			return fmt.Errorf("core: restore params: %w", err)
		}
		if err := w.opt.LoadState(s.OptState); err != nil {
			return fmt.Errorf("core: restore optimizer: %w", err)
		}
	}
	if err := lj.loader.SetCursor(s.Cursor); err != nil {
		return fmt.Errorf("core: restore cursor: %w", err)
	}
	lj.iter = s.Iteration
	lj.tbs = s.TBS
	lj.lrSched = sched
	return nil
}
