// Package coord implements the application master (AM) and the asynchronous
// coordination mechanism of Sections II and V-B.
//
// The AM is a small state machine attached to each elastic job:
//
//	Idle --RequestAdjustment--> Pending --all new workers reported--> Ready
//	Ready --Coordinate (by existing workers at an iteration boundary)--> Idle
//
// The two properties that make adjustments cheap are encoded here. First,
// new workers start and initialize in parallel with ongoing training and
// report when ready; existing workers never wait — if a coordination call
// arrives while workers are still launching, it simply returns "keep
// training" and the adjustment is picked up by a later coordination.
// Second, no existing worker is ever shut down: Coordinate hands back an
// adjustment plan that the runtime applies in place.
//
// For fault tolerance (Section V-D) the AM persists its state machine to a
// versioned store (the etcd stand-in) using compare-and-swap: a recovered
// incarnation resumes from the stored state, and a stale incarnation that
// lost the key fences itself off with ErrFenced.
//
// Both wires deliver at least once, so the calls that change the state are
// idempotent in it, keyed by the adjustment sequence number: a caller names
// after, the last adjustment it received, and a repeat — after a lost
// reply, a resend or an AM restart — finds its own effect and gets the
// first answer again (DESIGN.md §7).
package coord

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/elan-sys/elan/internal/store"
	"github.com/elan-sys/elan/internal/telemetry"
)

// Errors returned by the AM.
var (
	// ErrBusy is returned when requesting an adjustment while another is in
	// flight; the scheduler retries at the next opportunity.
	ErrBusy = errors.New("coord: adjustment already in progress")
	// ErrFenced is returned when this AM incarnation lost the persistence
	// race to a newer one and must stop.
	ErrFenced = errors.New("coord: AM incarnation fenced off")
	// ErrUnknownWorker is returned for a report from a worker that is not
	// part of an open adjustment: never named, or already handed out.
	ErrUnknownWorker = errors.New("coord: worker not in pending adjustment")
)

// Kind classifies a resource adjustment.
type Kind int

const (
	// ScaleOut adds workers.
	ScaleOut Kind = iota + 1
	// ScaleIn removes workers.
	ScaleIn
	// Migrate moves the job to a different worker set.
	Migrate
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case ScaleOut:
		return "scale-out"
	case ScaleIn:
		return "scale-in"
	case Migrate:
		return "migrate"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// State is the AM state-machine state.
type State int

const (
	// Idle means no adjustment is in flight.
	Idle State = iota + 1
	// Pending means an adjustment was requested and new workers (if any)
	// are still starting.
	Pending
	// Ready means all new workers reported; the adjustment fires at the
	// next coordination.
	Ready
)

// String names the state.
func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Pending:
		return "pending"
	case Ready:
		return "ready"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Adjustment is the plan handed to the runtime when a coordination fires.
type Adjustment struct {
	// Seq is the monotonically increasing adjustment number of this job.
	Seq int64
	// Kind of adjustment.
	Kind Kind
	// Add are the worker names joining; Remove are those leaving.
	Add    []string
	Remove []string
	// Trace is the causal identity of the scheduler request that opened the
	// adjustment, carried through the Pending state so the fleet's
	// apply-side spans join the original request's tree. Zero when the
	// request was untraced.
	Trace telemetry.TraceContext
}

// is reports whether a is the adjustment a request for kind, add and remove
// opens; a nil a is none.
func (a *Adjustment) is(kind Kind, add, remove []string) bool {
	return a != nil && a.Kind == kind && slices.Equal(a.Add, add) && slices.Equal(a.Remove, remove)
}

// clone returns a copy of a that shares no slice with it.
func (a *Adjustment) clone() Adjustment {
	c := *a
	c.Add, c.Remove = slices.Clone(a.Add), slices.Clone(a.Remove)
	return c
}

// persisted is the gob-serialized AM state saved to the store.
type persisted struct {
	State   State
	Seq     int64
	Pending *pendingState
	// Last is adjustment Seq, the last one handed out, for Coordinate to
	// hand out again to a caller whose reply was lost.
	Last *Adjustment
}

// pendingState is the open adjustment: its Seq is the number it will be
// handed out as, and its Trace survives persistence so a recovered AM
// still hands the original request's causal identity to Coordinate.
type pendingState struct {
	Adjustment
	Reported map[string]bool
}

// AM is the application master of one job. It is safe for concurrent use:
// the scheduler, new workers and existing workers all call into it.
type AM struct {
	jobID string
	st    *store.Store

	mu      sync.Mutex
	state   State
	seq     int64
	pending *pendingState
	last    *Adjustment
	version int64 // store version for CAS fencing
}

func amKey(jobID string) string { return "am/" + jobID }

// NewAM creates a fresh AM for jobID, persisting its initial state. It
// fails if an AM for the job already exists (use Recover instead).
func NewAM(jobID string, st *store.Store) (*AM, error) {
	if jobID == "" {
		return nil, errors.New("coord: empty job ID")
	}
	if st == nil {
		return nil, errors.New("coord: nil store")
	}
	am := &AM{jobID: jobID, st: st, state: Idle}
	blob, err := am.encode()
	if err != nil {
		return nil, err
	}
	v, err := st.CAS(amKey(jobID), 0, blob)
	if err != nil {
		return nil, fmt.Errorf("coord: AM for %q already exists: %w", jobID, err)
	}
	am.version = v
	return am, nil
}

// Recover reconstructs an AM from its persisted state after a failure. The
// recovered incarnation takes over the key: any older incarnation still
// running will fence itself on its next persist.
func Recover(jobID string, st *store.Store) (*AM, error) {
	if st == nil {
		return nil, errors.New("coord: nil store")
	}
	e, err := st.Get(amKey(jobID))
	if err != nil {
		return nil, fmt.Errorf("coord: recover %q: %w", jobID, err)
	}
	var p persisted
	if err := gob.NewDecoder(bytes.NewReader(e.Value)).Decode(&p); err != nil {
		return nil, fmt.Errorf("coord: decode AM state: %w", err)
	}
	am := &AM{
		jobID:   jobID,
		st:      st,
		state:   p.State,
		seq:     p.Seq,
		pending: p.Pending,
		last:    p.Last,
	}
	// Take over by bumping the version.
	blob, err := am.encode()
	if err != nil {
		return nil, err
	}
	v, err := st.CAS(amKey(jobID), e.Version, blob)
	if err != nil {
		return nil, fmt.Errorf("coord: takeover race: %w", err)
	}
	am.version = v
	return am, nil
}

// encode must be called with or without the lock but with a consistent view.
func (am *AM) encode() ([]byte, error) {
	var buf bytes.Buffer
	p := persisted{State: am.state, Seq: am.seq, Pending: am.pending, Last: am.last}
	if err := gob.NewEncoder(&buf).Encode(&p); err != nil {
		return nil, fmt.Errorf("coord: encode AM state: %w", err)
	}
	return buf.Bytes(), nil
}

// persistLocked writes the current state under CAS; callers hold am.mu.
func (am *AM) persistLocked() error {
	blob, err := am.encode()
	if err != nil {
		return err
	}
	v, err := am.st.CAS(amKey(am.jobID), am.version, blob)
	if err != nil {
		if errors.Is(err, store.ErrCASFailure) {
			return ErrFenced
		}
		return err
	}
	am.version = v
	return nil
}

// State returns the current state (for monitoring and tests).
func (am *AM) State() State {
	am.mu.Lock()
	defer am.mu.Unlock()
	return am.state
}

// Seq returns the number of adjustments performed so far.
func (am *AM) Seq() int64 {
	am.mu.Lock()
	defer am.mu.Unlock()
	return am.seq
}

// RequestAdjustment is the service API offered to the scheduler (step 1 of
// the adjustment procedure): it opens adjustment after+1 when the AM is Idle
// at after, the last adjustment the caller received. add names workers
// being launched; remove names workers that will leave. If no new workers
// are required (pure scale-in), the adjustment is immediately Ready. A
// repeat that finds the same request still open, or already handed out as
// after+1, returns nil; anything else is ErrBusy.
func (am *AM) RequestAdjustment(after int64, kind Kind, add, remove []string) error {
	return am.RequestAdjustmentTraced(after, kind, add, remove, telemetry.TraceContext{})
}

// RequestAdjustmentTraced is RequestAdjustment carrying the requesting
// span's identity: the context is stored with the pending adjustment and
// returned on the eventual Coordinate, linking request and application into
// one cross-process trace.
func (am *AM) RequestAdjustmentTraced(after int64, kind Kind, add, remove []string, tc telemetry.TraceContext) error {
	if kind != ScaleOut && kind != ScaleIn && kind != Migrate {
		return fmt.Errorf("coord: invalid kind %v", kind)
	}
	if kind == ScaleOut && len(add) == 0 {
		return errors.New("coord: scale-out without new workers")
	}
	if kind == ScaleIn && len(remove) == 0 {
		return errors.New("coord: scale-in without removed workers")
	}
	am.mu.Lock()
	defer am.mu.Unlock()
	switch {
	case am.seq == after && am.state == Idle: // opened below
	case am.seq == after && am.pending != nil && am.pending.is(kind, add, remove),
		am.seq == after+1 && am.last.is(kind, add, remove):
		return nil // a repeat: still open, or already handed out
	default:
		return fmt.Errorf("%w (state=%v, seq=%d, after=%d)", ErrBusy, am.state, am.seq, after)
	}
	reported := make(map[string]bool, len(add))
	for _, w := range add {
		reported[w] = false
	}
	am.pending = &pendingState{
		Adjustment: Adjustment{
			Seq:    after + 1,
			Kind:   kind,
			Add:    slices.Clone(add),
			Remove: slices.Clone(remove),
			Trace:  tc,
		},
		Reported: reported,
	}
	if len(add) == 0 {
		am.state = Ready
	} else {
		am.state = Pending
	}
	if err := am.persistLocked(); err != nil {
		// Roll back the in-memory transition so a fenced AM stays inert.
		am.state = Idle
		am.pending = nil
		return err
	}
	return nil
}

// ReportReady records that a newly launched worker finished start and
// initialization (step 2). When the last pending worker reports, the
// adjustment becomes Ready. A repeat while the adjustment is open returns
// nil; once it is handed out, or for a worker it does not name, the report
// is ErrUnknownWorker.
func (am *AM) ReportReady(worker string) error {
	am.mu.Lock()
	defer am.mu.Unlock()
	if am.pending == nil || !slices.Contains(am.pending.Add, worker) {
		return fmt.Errorf("%w: %q (state=%v)", ErrUnknownWorker, worker, am.state)
	}
	if am.pending.Reported[worker] {
		return nil // a repeat while the adjustment is open
	}
	am.pending.Reported[worker] = true
	am.state = Ready
	for _, v := range am.pending.Reported {
		if !v {
			am.state = Pending
			break
		}
	}
	if err := am.persistLocked(); err != nil {
		// Roll back: a fenced AM must not answer a repeat as reported.
		am.pending.Reported[worker], am.state = false, Pending
		return err
	}
	return nil
}

// Coordinate is called by the existing workers at iteration boundaries
// (step 3) with the last adjustment they received. It returns adjustment
// after+1 if the AM handed it out before (a repeat after a lost reply or an
// AM restart) or hands it out now because it is Ready, taking the AM back
// to Idle; otherwise ok is false and training proceeds immediately — this
// is what hides worker start and initialization off the critical path.
func (am *AM) Coordinate(after int64) (Adjustment, bool, error) {
	am.mu.Lock()
	defer am.mu.Unlock()
	if am.last != nil && am.last.Seq == after+1 {
		return am.last.clone(), true, nil
	}
	if after != am.seq {
		return Adjustment{}, false, fmt.Errorf("coord: coordinate after adjustment %d, but the AM is at %d", after, am.seq)
	}
	if am.state != Ready {
		return Adjustment{}, false, nil
	}
	last, pending := am.last, am.pending
	am.state, am.seq, am.last, am.pending = Idle, pending.Seq, &pending.Adjustment, nil
	if err := am.persistLocked(); err != nil {
		// Roll back so a fenced AM hands nothing out.
		am.state, am.seq, am.last, am.pending = Ready, after, last, pending
		return Adjustment{}, false, err
	}
	return am.last.clone(), true, nil
}

// PendingWorkers returns the not-yet-reported workers of the pending
// adjustment (for monitoring).
func (am *AM) PendingWorkers() []string {
	am.mu.Lock()
	defer am.mu.Unlock()
	if am.pending == nil {
		return nil
	}
	var out []string
	for _, w := range am.pending.Add {
		if !am.pending.Reported[w] {
			out = append(out, w)
		}
	}
	return out
}
