// Package ddp is the distributed-data-parallel gradient reducer shared by
// the fleet worker and the live-job worker: one implementation of the
// backward-pass → gradient-average sequence both previously hand-rolled
// around whole-vector AllReduceMean calls.
//
// The reducer splits the network's gradient arena into fixed-capacity
// buckets built by walking the layers in reverse (the order backward
// completes them) and overlaps communication with compute: the moment the
// last layer of a bucket finishes its backward, the bucket's range of the
// arena is handed to a resident comm goroutine, which allreduces and
// averages it where it lies while the remaining layers are still computing —
// backward of layer N overlaps the allreduce of layers above N. With
// BucketElems == 0 (the default) the plan is a single whole-vector bucket,
// which makes the reducer's arithmetic — and its accumulation order —
// exactly the historical AllReduceMean path.
//
// A Reducer belongs to one worker goroutine; only Close and Reopen may be
// called from elsewhere, and only after the owner has stopped stepping.
package ddp

import (
	"fmt"

	"github.com/elan-sys/elan/internal/collective"
	"github.com/elan-sys/elan/internal/nn"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/tensor"
)

// Config parametrizes gradient bucketing.
type Config struct {
	// BucketElems caps the element count of each gradient bucket. Buckets
	// are closed greedily in reverse-layer order once they reach the cap,
	// so every bucket except possibly the last (lowest layers) holds at
	// least BucketElems elements. 0 disables bucketing: one whole-vector
	// bucket, no overlap, bit-identical to a whole-vector AllReduceMean.
	BucketElems int
}

// bucket is one contiguous range of the network's gradient arena, covering
// layers [lowLayer, highLayer] — ready for reduction as soon as lowLayer's
// backward completes (layers finish in descending order).
type bucket struct {
	lo, hi   int
	lowLayer int
}

// reduceReq names the group and rank a step's buckets reduce over; the
// elastic runtime swaps groups between steps, so they are per-request
// rather than per-reducer state. tc is the causal parent for the step's
// allreduce spans (zero when untraced).
type reduceReq struct {
	g    *collective.Group
	rank int
	tc   telemetry.TraceContext
}

// Reducer owns the bucket plan over a network's gradient arena, and no
// vector of its own. During a step the arena has two writers, kept apart by
// range (DESIGN §9): backward, on the owner's goroutine, writes the layers in
// descending order; a closed bucket's range belongs to the comm goroutine
// from the send on ready to the receive from res.
type Reducer struct {
	net     *nn.MLP
	buckets []bucket
	readyOf []int     // readyOf[layer] = bucket to fire when layer completes, else -1
	grads   []float64 // net's gradient arena, not a copy
	// maxBucket is the longest bucket of the plan: what each step primes
	// the group's scratch to, before the first (often shorter) bucket.
	maxBucket int

	onLayer func(int) error // cached hook: per-step closures would allocate
	fired   int             // buckets signalled so far this step

	started bool
	closed  bool
	req     chan reduceReq
	res     chan error
	ready   chan int
	done    chan struct{}
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
		r.buckets = []bucket{{lo: 0, hi: hi, lowLayer: 0}}
		r.readyOf[0] = 0
	} else {
		acc, high := 0, nl-1
		for i := nl - 1; i >= 0; i-- {
			lo, hi := net.GradRange(i)
			acc += hi - lo
			if acc >= cfg.BucketElems || i == 0 {
				blo, _ := net.GradRange(i)
				_, bhi := net.GradRange(high)
				r.buckets = append(r.buckets, bucket{lo: blo, hi: bhi, lowLayer: i})
				r.readyOf[i] = len(r.buckets) - 1
				acc, high = 0, i-1
			}
		}
	}
	for _, b := range r.buckets {
		r.maxBucket = max(r.maxBucket, b.hi-b.lo)
	}
	r.req = make(chan reduceReq)
	r.res = make(chan error, 1)
	// Buffered to the plan size so the backward pass never blocks on a
	// slow reduction: the hook deposits the bucket index and keeps
	// computing.
	r.ready = make(chan int, len(r.buckets))
	r.done = make(chan struct{})
	r.onLayer = func(layer int) error {
		if b := r.readyOf[layer]; b >= 0 {
			r.ready <- b
			r.fired++
		}
		return nil
	}
	return r
}

// NumBuckets returns the number of buckets in the reduction plan.
func (r *Reducer) NumBuckets() int { return len(r.buckets) }

// BackwardAllReduce runs the backward pass for lossGrad and averages the
// network's gradients across g in place (bucket by bucket, overlapped with
// the remaining backward compute). It must be called collectively: every
// rank of g steps with the same bucket plan. Blocking is bounded by g.Close,
// which aborts in-flight reductions with collective.ErrClosed.
//
//elan:hotpath
func (r *Reducer) BackwardAllReduce(g *collective.Group, rank int, lossGrad *tensor.Matrix) error {
	return r.BackwardAllReduceTraced(g, rank, lossGrad, telemetry.TraceContext{})
}

// BackwardAllReduceTraced is BackwardAllReduce with a causal parent
// (typically the rank's step span): the backward compute gets its own child
// span and the overlapped per-bucket allreduce spans become children of the
// same parent, so the trace shows compute and communication side by side.
// A zero tc is the plain uninstrumented path.
//
//elan:hotpath
func (r *Reducer) BackwardAllReduceTraced(g *collective.Group, rank int, lossGrad *tensor.Matrix, tc telemetry.TraceContext) error {
	if r.closed {
		return fmt.Errorf("ddp: reducer closed") //elan:vet-allow hotpathalloc — cold error path, never taken in the zero-alloc steady state
	}
	if !r.started {
		r.started = true
		go r.commLoop() //elan:vet-allow hotpathalloc — one-time resident comm-goroutine startup on first step
	}
	return r.step(g, rank, lossGrad, tc)
}

// step submits the request to the comm goroutine, runs backward with the
// bucket hook, and joins the reduction.
//
//elan:hotpath
func (r *Reducer) step(g *collective.Group, rank int, lossGrad *tensor.Matrix, tc telemetry.TraceContext) error {
	r.fired = 0
	r.req <- reduceReq{g: g, rank: rank, tc: tc}
	// The backward span ends before the join below, so the comm-wait tail
	// of the step is attributed to the (overlapping) allreduce spans, not
	// to compute.
	var bspan *telemetry.Span
	if tc.Valid() {
		bspan = telemetry.StartRemote(g.Tracer(), "ddp.backward", tc)
		bspan.AnnotateInt("rank", rank)
	}
	bErr := r.net.BackwardLayers(lossGrad, r.onLayer)
	if bErr != nil {
		bspan.Annotate("error", bErr.Error())
	}
	bspan.End()
	// The comm loop consumes exactly len(buckets) signals per request;
	// if backward bailed early, feed it the rest so this rank still joins
	// every collective its peers are counting on.
	for b := r.fired; b < len(r.buckets); b++ {
		r.ready <- b
	}
	cErr := <-r.res
	if bErr != nil {
		return bErr
	}
	return cErr
}

// Close shuts down the comm goroutine and makes the reducer unusable until
// it is reopened. Call only after the owning worker has stopped stepping;
// safe to call repeatedly and on a reducer that never stepped.
func (r *Reducer) Close() {
	if r.closed {
		return
	}
	r.closed = true
	if !r.started {
		return
	}
	close(r.req)
	<-r.done
}

// Reopen makes a closed reducer usable again, for the worker that inherits
// it: the bucket plan is kept and the next step starts a new comm goroutine.
// A reducer that is not closed is left alone.
func (r *Reducer) Reopen() {
	if !r.closed {
		return
	}
	r.closed, r.started = false, false
	r.req = make(chan reduceReq)
	r.done = make(chan struct{})
}

// commLoop is the resident reduction goroutine: one request per step, one
// allreduce per bucket, in plan order.
//
//elan:hotpath
func (r *Reducer) commLoop() {
	defer close(r.done)
	for req := range r.req {
		r.res <- r.runBuckets(req)
	}
}

// runBuckets drains this step's bucket signals in plan order, reducing and
// averaging each range. On error it keeps draining (the signal count per
// step is fixed) and reports the first failure.
//
//elan:hotpath
func (r *Reducer) runBuckets(req reduceReq) error {
	var firstErr error
	inv := 1 / float64(req.g.Size())
	req.g.Prime(req.rank, r.maxBucket)
	for want := 0; want < len(r.buckets); want++ {
		b := <-r.ready
		if firstErr != nil {
			continue
		}
		if b != want {
			firstErr = fmt.Errorf("ddp: bucket %d signalled, want %d", b, want) //elan:vet-allow hotpathalloc — cold error path, never taken in the zero-alloc steady state
			continue
		}
		bk := r.buckets[b]
		seg := r.grads[bk.lo:bk.hi]
		if err := req.g.AllReduceBucketFrom(req.tc, req.rank, seg, b); err != nil {
			firstErr = err
			continue
		}
		for i := range seg {
			seg[i] *= inv
		}
	}
	return firstErr
}
