// Package ddp is the distributed-data-parallel gradient reducer shared by
// the fleet worker and the live-job worker: one implementation of the
// backward-pass → gradient-average sequence both previously hand-rolled
// around whole-vector AllReduceMean calls.
//
// The reducer splits the network's gradient arena into fixed-capacity
// buckets built by walking the layers in reverse (the order backward
// completes them). The moment the last layer of a bucket finishes its
// backward, the rank averages the bucket's range of the arena across the
// group where it lies, on its own goroutine, and then goes on with the
// layers below. With BucketElems == 0 (the default) the plan is a single
// whole-vector bucket, which makes the reducer's arithmetic — and its
// accumulation order — exactly the historical AllReduceMean path.
//
// The training step (BackwardStep) goes one further: it reduce-scatters
// every bucket, and inside the last bucket's exchange the owner of each
// chunk applies the optimizer update to its chunks of every bucket and
// copies the updated parameters and velocity into its peers' replicas, so
// each element is updated once rather than once a rank.
//
// A Reducer belongs to one worker goroutine at a time.
package ddp

import (
	"errors"
	"fmt"

	"github.com/elan-sys/elan/internal/collective"
	"github.com/elan-sys/elan/internal/nn"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/tensor"
)

// errForeignReplica is returned by BackwardStep for a replica whose network
// is not the one the reducer was built for.
var errForeignReplica = errors.New("ddp: step on a replica of another network")

// Config parametrizes gradient bucketing.
type Config struct {
	// BucketElems caps the element count of each gradient bucket. Buckets
	// are closed greedily in reverse-layer order once they reach the cap,
	// so every bucket except possibly the last (lowest layers) holds at
	// least BucketElems elements. In BackwardStep every bucket but the last
	// is reduce-scattered inline, on the caller's goroutine, as soon as
	// backward closes it; the last bucket's exchange reduces it and commits
	// the optimizer update. 0 disables bucketing: one whole-vector bucket,
	// whose one exchange reduces and commits after the whole backward.
	BucketElems int
}

// bucket is one contiguous range of the network's gradient arena, covering
// whole layers: it is ready for reduction as soon as the lowest of them
// completes its backward (layers finish in descending order).
type bucket struct {
	lo, hi int
}

// Reducer owns the bucket plan over a network's gradient arena, and no
// vector of its own. During a step backward writes the arena in descending
// layer order and each closed bucket is averaged in place before backward
// moves on, all on the caller's goroutine; inside an exchange the group's
// other ranks write this rank's copy of the chunks they own (DESIGN §9).
type Reducer struct {
	net     *nn.MLP
	buckets []bucket
	readyOf []int     // readyOf[layer] = bucket to reduce when layer completes, else -1
	grads   []float64 // net's gradient arena, not a copy

	onLayer func(int) error // cached hook: per-step closures would allocate

	// The step in progress, for onLayer: the group and rank it reduces
	// over, the causal parent of its spans, the open backward span, the
	// next bucket to reduce and the first reduction error. rep is the
	// replica a BackwardStep updates, nil for BackwardAllReduce; commit is
	// its last exchange's Commit, whose Apply hook is cached like onLayer.
	g      *collective.Group
	rank   int
	tc     telemetry.TraceContext
	bspan  *telemetry.Span
	next   int
	err    error
	rep    *nn.Replica
	commit collective.Commit

	closed bool
}

// New builds a reducer for net. The bucket plan is fixed at construction
// (layer shapes never change); the elastic runtime reuses one reducer
// across group reconstructions by passing the current group to each step.
func New(net *nn.MLP, cfg Config) *Reducer {
	nl := net.NumLayers()
	r := &Reducer{
		net:     net,
		readyOf: make([]int, nl),
		grads:   net.GradArena(),
	}
	for i := range r.readyOf {
		r.readyOf[i] = -1
	}
	if cfg.BucketElems <= 0 {
		_, hi := net.GradRange(nl - 1)
		r.buckets = []bucket{{lo: 0, hi: hi}}
		r.readyOf[0] = 0
	} else {
		acc, high := 0, nl-1
		for i := nl - 1; i >= 0; i-- {
			lo, hi := net.GradRange(i)
			acc += hi - lo
			if acc >= cfg.BucketElems || i == 0 {
				blo, _ := net.GradRange(i)
				_, bhi := net.GradRange(high)
				r.buckets = append(r.buckets, bucket{lo: blo, hi: bhi})
				r.readyOf[i] = len(r.buckets) - 1
				acc, high = 0, i-1
			}
		}
	}
	r.onLayer = func(layer int) error {
		if r.readyOf[layer] >= 0 {
			// The backward span covers compute only: it ends before the
			// bucket's exchange and a new one opens after it.
			r.bspan.End()
			r.bspan = nil
			r.reduceNext()
			if layer > 0 {
				r.bspan = r.startBackward()
			}
		}
		return nil
	}
	r.commit.Apply = r.apply
	return r
}

// NumBuckets returns the number of buckets in the reduction plan.
func (r *Reducer) NumBuckets() int { return len(r.buckets) }

// BackwardAllReduce runs the backward pass for lossGrad and averages the
// network's gradients across g in place, bucket by bucket as backward
// completes them. It must be called collectively: every rank of g steps
// with the same bucket plan. Blocking is bounded by g.Close, which aborts
// the reductions with collective.ErrClosed. The training step is
// BackwardStep; this is its reference form, with the update left to
// SGD.Step.
//
//elan:hotpath
func (r *Reducer) BackwardAllReduce(g *collective.Group, rank int, lossGrad *tensor.Matrix) error {
	return r.run(g, rank, lossGrad, nil, telemetry.TraceContext{})
}

// BackwardStep is the training step after the forward pass: backward, the
// gradient mean and the optimizer update of rep, whose network the reducer
// was built for. Every bucket but the last is reduce-scattered as backward
// closes it; in the last bucket's exchange rank c updates the range it owns
// of every bucket (collective.Chunk of the bucket) in its own replica, with
// rep.Opt's LR and Momentum, and copies the updated parameters and velocity
// of those ranges into every peer's replica (DESIGN §9, "The owner rule").
// On return every rank's state is what BackwardAllReduce followed by
// rep.Opt.Step would leave, bit for bit; its gradient arena holds the mean
// only on the ranges it owns.
//
// The last exchange's entry is the commit point. A rank whose backward
// failed still joins every exchange but withdraws from the commit, so no
// replica is updated and every rank returns an error; a Close before the
// commit's entry leaves every replica as it was.
//
// tc is the causal parent of the step's spans, typically the rank's step
// span: the backward compute between two bucket exchanges gets a
// ddp.backward child of its own, every bucket's exchange span is a child
// of the same parent, and the owner's update runs in a worker.optimize
// child, so the trace shows compute and communication side by side. A
// zero tc is the plain uninstrumented path.
//
//elan:hotpath
func (r *Reducer) BackwardStep(g *collective.Group, rank int, lossGrad *tensor.Matrix, rep *nn.Replica, tc telemetry.TraceContext) error {
	if rep == nil || rep.Net != r.net {
		return errForeignReplica
	}
	r.commit.State = rep.State()
	return r.run(g, rank, lossGrad, rep, tc)
}

// run is a step of either kind: BackwardAllReduce with a nil rep,
// BackwardStep otherwise.
//
//elan:hotpath
func (r *Reducer) run(g *collective.Group, rank int, lossGrad *tensor.Matrix, rep *nn.Replica, tc telemetry.TraceContext) error {
	if r.closed {
		return fmt.Errorf("ddp: reducer closed")
	}
	r.g, r.rank, r.tc, r.next, r.err, r.rep = g, rank, tc, 0, nil, rep
	r.commit.OK = true
	r.bspan = r.startBackward()
	bErr := r.net.BackwardLayers(lossGrad, r.onLayer)
	if bErr != nil {
		r.bspan.Annotate("error", bErr.Error())
		r.bspan.End()
		r.bspan = nil
		// Backward bailed early: reduce the buckets it never closed, so
		// this rank still joins every exchange its peers are counting on,
		// and withdraw from the commit, so no replica takes the step.
		r.commit.OK = false
		for r.next < len(r.buckets) {
			r.reduceNext()
		}
	}
	err := r.err
	r.g, r.rep = nil, nil
	if bErr != nil {
		return bErr
	}
	return err
}

// startBackward opens a backward span under the step's parent, or returns
// nil on an untraced step.
func (r *Reducer) startBackward() *telemetry.Span {
	if !r.tc.Valid() {
		return nil
	}
	s := r.g.Tracer().StartRemoteSpan("ddp.backward", r.tc)
	s.AnnotateInt("rank", r.rank)
	return s
}

// reduceNext averages the step's next bucket across the group: an
// allreduce for BackwardAllReduce; for BackwardStep a reduce-scatter, and
// the commit for the last bucket. After a failed exchange it reduces
// nothing more: every rank of the group fails the same exchange, so none is
// left waiting.
//
//elan:hotpath
func (r *Reducer) reduceNext() {
	b := r.next
	r.next++
	if r.err != nil {
		return
	}
	bk := r.buckets[b]
	vec := r.grads[bk.lo:bk.hi]
	switch {
	case r.rep == nil:
		r.err = r.g.AllReduceMeanBucket(r.tc, r.rank, vec, b)
	case b < len(r.buckets)-1:
		r.err = r.g.ReduceScatterMeanBucket(r.tc, r.rank, vec, b)
	default:
		r.err = r.g.ReduceScatterMeanCommit(r.tc, r.rank, vec, b, &r.commit)
	}
}

// apply is the step's Commit.Apply, run between the last exchange's
// barriers once every rank is in: the update of the rank's owned range of
// every bucket, each range copied into every peer's state arena as soon as
// it is updated. states[r] is rank r's arena, [params | velocity].
//
//elan:hotpath
func (r *Reducer) apply(states [][]float64) {
	var span *telemetry.Span
	if r.tc.Valid() {
		span = r.g.Tracer().StartRemoteSpan("worker.optimize", r.tc)
		span.AnnotateInt("rank", r.rank)
	}
	n, np := len(states), r.net.NumParams()
	own := states[r.rank]
	for _, bk := range r.buckets {
		lo, hi := collective.Chunk(bk.hi-bk.lo, n, r.rank)
		lo, hi = bk.lo+lo, bk.lo+hi
		r.rep.Update(lo, hi)
		for s := 1; s < n; s++ {
			peer := states[(r.rank+s)%n]
			copy(peer[lo:hi], own[lo:hi])
			copy(peer[np+lo:np+hi], own[np+lo:np+hi])
		}
	}
	span.End()
}

// Close makes the reducer refuse to step from then on. Safe to call
// repeatedly and on a reducer that never stepped.
func (r *Reducer) Close() {
	r.closed = true
}
