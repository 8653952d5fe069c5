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

// persisted is the AM's state, saved to the store in codec.go's layout:
// the open adjustment and the last one handed out. Its state and seq are
// functions of the two.
type persisted struct {
	Pending *pendingState
	// Last is the last adjustment handed out, for Coordinate to hand out
	// again to a caller whose reply was lost.
	Last *Adjustment
}

// state is Idle with no adjustment open, Ready once every worker the open
// one adds has reported, and Pending before that.
func (p *persisted) state() State {
	switch {
	case p.Pending == nil:
		return Idle
	case slices.Contains(p.Pending.Reported, false):
		return Pending
	default:
		return Ready
	}
}

// seq is the number of the last adjustment handed out, 0 before the first.
func (p *persisted) seq() int64 {
	if p.Last == nil {
		return 0
	}
	return p.Last.Seq
}

// pendingState is the open adjustment: its Seq is the number it will be
// handed out as, and its Trace survives persistence so a recovered AM
// still hands the original request's causal identity to Coordinate.
// Reported has one flag per Add entry, in Add order.
type pendingState struct {
	Adjustment
	Reported []bool
}

// AM is the application master of one job. It is safe for concurrent use:
// the scheduler, new workers and existing workers all call into it.
type AM struct {
	jobID string
	st    *store.Store

	mu        sync.Mutex
	persisted       // the two adjustments: all the AM's state
	version   int64 // store version for CAS fencing
	// buf is the scratch buffer the state is encoded into; the store
	// copies what it keeps.
	buf []byte
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
	am := &AM{jobID: jobID, st: st}
	v, err := st.CAS(amKey(jobID), 0, am.encode())
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
	p, err := decodePersisted(e.Value)
	if err != nil {
		return nil, fmt.Errorf("coord: decode AM state: %w", err)
	}
	am := &AM{
		jobID:     jobID,
		st:        st,
		persisted: p,
		buf:       e.Value, // a copy of the store's, free to reuse
	}
	// Take over by bumping the version.
	v, err := st.CAS(amKey(jobID), e.Version, am.encode())
	if err != nil {
		return nil, fmt.Errorf("coord: takeover race: %w", err)
	}
	am.version = v
	return am, nil
}

// encode writes the state into am.buf and returns it. Callers hold am.mu,
// or own an AM no other goroutine sees yet.
func (am *AM) encode() []byte {
	am.buf = appendPersisted(am.buf[:0], &am.persisted)
	return am.buf
}

// persistLocked writes the current state under CAS; callers hold am.mu.
func (am *AM) persistLocked() error {
	v, err := am.st.CAS(amKey(am.jobID), am.version, am.encode())
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
	return am.state()
}

// Seq returns the number of adjustments performed so far.
func (am *AM) Seq() int64 {
	am.mu.Lock()
	defer am.mu.Unlock()
	return am.seq()
}

// checkRequest refuses an adjustment the AM never opens: an unknown kind, a
// scale-out without joiners, a scale-in without leavers, or a joiner named
// twice.
func checkRequest(kind Kind, add, remove []string) error {
	if kind != ScaleOut && kind != ScaleIn && kind != Migrate {
		return fmt.Errorf("coord: invalid kind %v", kind)
	}
	if kind == ScaleOut && len(add) == 0 {
		return errors.New("coord: scale-out without new workers")
	}
	if kind == ScaleIn && len(remove) == 0 {
		return errors.New("coord: scale-in without removed workers")
	}
	for i, w := range add {
		if slices.Contains(add[:i], w) {
			return fmt.Errorf("coord: worker %q added twice", w)
		}
	}
	return nil
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
	if err := checkRequest(kind, add, remove); err != nil {
		return err
	}
	am.mu.Lock()
	defer am.mu.Unlock()
	seq := am.seq()
	switch {
	case seq == after && am.Pending == nil: // opened below
	case seq == after && am.Pending.is(kind, add, remove),
		seq == after+1 && am.Last.is(kind, add, remove):
		return nil // a repeat: still open, or already handed out
	default:
		return fmt.Errorf("%w (state=%v, seq=%d, after=%d)", ErrBusy, am.state(), seq, after)
	}
	am.Pending = &pendingState{
		Adjustment: Adjustment{
			Seq:    after + 1,
			Kind:   kind,
			Add:    slices.Clone(add),
			Remove: slices.Clone(remove),
			Trace:  tc,
		},
		Reported: make([]bool, len(add)),
	}
	if err := am.persistLocked(); err != nil {
		// Roll back the in-memory transition so a fenced AM stays inert.
		am.Pending = nil
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
	if am.Pending == nil || !slices.Contains(am.Pending.Add, worker) {
		return fmt.Errorf("%w: %q (state=%v)", ErrUnknownWorker, worker, am.state())
	}
	i := slices.Index(am.Pending.Add, worker)
	if am.Pending.Reported[i] {
		return nil // a repeat while the adjustment is open
	}
	am.Pending.Reported[i] = true
	if err := am.persistLocked(); err != nil {
		// Roll back: a fenced AM must not answer a repeat as reported.
		am.Pending.Reported[i] = false
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
	if am.Last != nil && am.Last.Seq == after+1 {
		return am.Last.clone(), true, nil
	}
	if seq := am.seq(); after != seq {
		return Adjustment{}, false, fmt.Errorf("coord: coordinate after adjustment %d, but the AM is at %d", after, seq)
	}
	if am.state() != Ready {
		return Adjustment{}, false, nil
	}
	last, pending := am.Last, am.Pending
	am.Last, am.Pending = &pending.Adjustment, nil
	if err := am.persistLocked(); err != nil {
		// Roll back so a fenced AM hands nothing out.
		am.Last, am.Pending = last, pending
		return Adjustment{}, false, err
	}
	return am.Last.clone(), true, nil
}

// PendingWorkers returns the not-yet-reported workers of the pending
// adjustment (for monitoring).
func (am *AM) PendingWorkers() []string {
	am.mu.Lock()
	defer am.mu.Unlock()
	if am.Pending == nil {
		return nil
	}
	var out []string
	for i, w := range am.Pending.Add {
		if !am.Pending.Reported[i] {
			out = append(out, w)
		}
	}
	return out
}
