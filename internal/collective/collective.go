// Package collective implements the collective communication used by
// data-parallel training: a real ring allreduce across in-process workers
// (goroutines connected by channels), plus group construction and
// reconstruction, which the elastic runtime performs after every resource
// adjustment (Section II, step 5).
//
// Every group runs the same textbook two-phase ring — a reduce-scatter of
// N chunks over N-1 steps followed by an allgather over N-1 steps — whatever
// its placement, so the accumulation order of a reduction depends on the
// rank count alone (ReferenceAllReduce). A placement on the hardware tree
// (Topology) only names the link level the group's telemetry reports.
// In-process links are uniform Go channels, where a two-tier hierarchy adds
// hops and saves nothing; the hierarchy lives in the analytic cost model
// (perfmodel.CommModel.Hierarchical), where links differ. Each rank runs in
// its own goroutine, so the gradient math of the pure-Go training substrate
// is genuinely distributed rather than simulated.
package collective

import (
	"errors"
	"fmt"
	"sync"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/telemetry"
)

// ErrClosed is returned when operating on a closed group.
var ErrClosed = errors.New("collective: group closed")

type chunkMsg struct {
	idx  int
	data []float64
}

// rankScratch is one rank's chunk arena for the ring stages. Ownership
// protocol: a send hands the buffer to the receiver for good (the channel
// send is the transfer point), and every receive deposits the incoming
// buffer into the receiver's arena for its next send. Buffers therefore
// migrate around the ring — what cycles is the arena slot, not a fixed
// buffer — and no rank ever writes a buffer its neighbor might still be
// reading. Each ring step is one withdrawal and one deposit, so a primed
// arena holds its two buffers and steady state never allocates.
type rankScratch struct {
	free   [][]float64
	capPer int
	// refills counts get's fallback allocations (nil on a group without
	// SetTelemetry; a nil counter is a no-op).
	refills *telemetry.Counter
}

// get withdraws a buffer of length need. Undersized buffers (migrants primed
// before a re-size) are dropped rather than returned.
//
//elan:hotpath
func (s *rankScratch) get(need int) []float64 {
	for len(s.free) > 0 {
		b := s.free[len(s.free)-1]
		s.free[len(s.free)-1] = nil
		s.free = s.free[:len(s.free)-1]
		if cap(b) >= need {
			return b[:need]
		}
	}
	return s.refill(need)
}

// refill is get's way out when the arena is empty: a peer's error path kept
// a buffer this rank was owed. Balanced steady state never gets here, and
// when something does it shows in collective_scratch_refill_total.
func (s *rankScratch) refill(need int) []float64 {
	s.refills.Inc()
	return make([]float64, need)
}

// put deposits a buffer received from a peer.
//
//elan:hotpath
func (s *rankScratch) put(b []float64) {
	s.free = append(s.free, b)
}

// scratchPool is the memory a group's chunk buffers are carved from. slabs
// holds every allocation whole; spare holds the parts of them no rank has
// carved a buffer from yet. Ranks carve under mu when they prime — once per
// group, never in steady state. The pool is what a group's successor adopts
// (AdoptScratch): slabs come back whole then, whatever sizes the old ranks
// had cut them into, which is what makes buffers of a 4-rank group serve a
// 3-rank one whose chunks are a third longer.
type scratchPool struct {
	mu    sync.Mutex
	slabs [][]float64
	spare [][]float64
}

// carve cuts a buffer of exactly n values off the first spare extent that
// has them, or returns nil.
func (p *scratchPool) carve(n int) []float64 {
	for i, e := range p.spare {
		if len(e) >= n {
			p.spare[i] = e[n:]
			return e[:n:n]
		}
	}
	return nil
}

// prime gives s two buffers of maxChunk values each, carved from spare
// memory. The rank that finds none left allocates one slab for the two
// buffers of every rank of the group, so the pool's memory stays in pieces
// the size of a whole group's scratch: a successor of any size carves its
// longer chunks from what it adopts, where per-rank slabs of an 8-rank group
// would each be too short for a chunk of a 3-rank one. Whatever s held
// before is dropped: its memory stays in slabs for the group's successor.
func (p *scratchPool) prime(s *rankScratch, maxChunk, ranks int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	clear(s.free)
	s.free = s.free[:0]
	for len(s.free) < 2 {
		b := p.carve(maxChunk)
		if b == nil {
			slab := make([]float64, 2*ranks*maxChunk)
			p.slabs = append(p.slabs, slab)
			p.spare = append(p.spare, slab)
			continue
		}
		s.free = append(s.free, b)
	}
	s.capPer = maxChunk
}

// Group is a communication group of n ranks. All ranks must call AllReduce
// collectively; the calls block until the collective completes. A Group is
// safe for concurrent use by its n member goroutines.
type Group struct {
	n int
	// ring[i] carries messages from rank i to rank (i+1)%n.
	ring []chan chunkMsg

	closeOnce sync.Once
	closed    chan struct{}

	// scratch[r] is rank r's chunk arena, touched only by that rank's
	// goroutine; pool is the memory the arenas are carved from.
	scratch []rankScratch
	pool    scratchPool

	// Telemetry (SetTelemetry); an un-instrumented group takes the
	// AllReduce fast path and records nothing at zero cost.
	instrumented bool
	tr           telemetry.Tracer
	clk          clock.Clock
	link         string
	mOps         *telemetry.Counter
	mSeconds     *telemetry.Histogram
	mElements    *telemetry.Counter
}

// NewGroup constructs a communication group of n ranks.
func NewGroup(n int) (*Group, error) {
	if n <= 0 {
		return nil, fmt.Errorf("collective: non-positive group size %d", n)
	}
	g := &Group{
		n:       n,
		ring:    make([]chan chunkMsg, n),
		closed:  make(chan struct{}),
		scratch: make([]rankScratch, n),
		tr:      telemetry.Nop{},
	}
	for i := range g.ring {
		g.ring[i] = make(chan chunkMsg, 1)
		g.scratch[i].free = make([][]float64, 0, 2)
	}
	return g, nil
}

// NewGroupWithTopology constructs a group with one rank per rank of t. The
// placement does not shape the reduction: every group runs the same ring,
// so the result depends on the rank count alone, as ReferenceAllReduce
// specifies. Callers pass the topology's LinkLabelOf to SetTelemetry.
func NewGroupWithTopology(t Topology) (*Group, error) {
	return NewGroup(t.Ranks())
}

// AdoptScratch makes g the successor of old: old is closed and the memory
// its ranks' chunk buffers were carved from becomes g's, to be carved again
// for g's own size — a group that replaces another of the same job
// allocates no scratch of its own unless it needs more than its
// predecessor had. This is an ownership transfer, so it is only valid at a
// point where no rank is inside a collective on old and none has started on
// g: between steps, under the lock that serializes them (DESIGN §9).
func (g *Group) AdoptScratch(old *Group) {
	old.Close()
	old.pool.mu.Lock()
	slabs := old.pool.slabs
	old.pool.slabs, old.pool.spare = nil, nil
	old.pool.mu.Unlock()
	for r := range old.scratch {
		old.scratch[r] = rankScratch{}
	}
	g.pool.mu.Lock()
	g.pool.slabs = append(g.pool.slabs, slabs...)
	g.pool.spare = append(g.pool.spare, slabs...)
	g.pool.mu.Unlock()
}

// SetTelemetry attaches tracing and metrics to the group: every AllReduce
// records one span per rank tagged with the link level, rank, vector
// length, group size and chunk size — the shape of the paper's allreduce
// cost-by-link-level accounting (Section IV). link labels the closest
// common link of the group's placement (topology.LinkLevel.String(), or
// "inproc" for the in-process goroutine substrate). Call before handing
// the group to its ranks; the elastic runtime re-attaches after every
// group reconstruction. Nil tracer/registry components stay disabled.
func (g *Group) SetTelemetry(tr telemetry.Tracer, reg *telemetry.Registry, clk clock.Clock, link string) {
	g.instrumented = true
	g.tr = telemetry.OrNop(tr)
	if clk == nil {
		clk = clock.Wall{}
	}
	g.clk = clk
	g.link = link
	g.mOps = reg.Counter("collective_allreduce_total")
	g.mSeconds = reg.Histogram("collective_allreduce_seconds")
	g.mElements = reg.Counter("collective_allreduce_elements_total")
	refills := reg.Counter("collective_scratch_refill_total")
	for r := range g.scratch {
		g.scratch[r].refills = refills
	}
}

// Tracer returns the group's tracer (Nop until SetTelemetry attaches one),
// so per-rank callers — the ddp reducer, the worker agents — can open spans
// on the same recorder the allreduce spans land in.
func (g *Group) Tracer() telemetry.Tracer {
	if !g.instrumented {
		return telemetry.Nop{}
	}
	return g.tr
}

// Size returns the number of ranks.
func (g *Group) Size() int { return g.n }

// Close aborts pending collectives; blocked ranks return ErrClosed.
func (g *Group) Close() {
	g.closeOnce.Do(func() { close(g.closed) })
}

// send hands msg to rank from's successor.
//
//elan:hotpath
func (g *Group) send(from int, msg chunkMsg) error {
	select {
	case g.ring[from] <- msg:
		return nil
	case <-g.closed:
		return ErrClosed
	}
}

// recv takes the next message from rank to's predecessor.
//
//elan:hotpath
func (g *Group) recv(to int) (chunkMsg, error) {
	select {
	case m := <-g.ring[(to-1+g.n)%g.n]:
		return m, nil
	case <-g.closed:
		return chunkMsg{}, ErrClosed
	}
}

// AllReduce sums vec elementwise across all ranks, in place. Every rank must
// call it with a vector of identical length; on return every rank holds the
// global sum. rank identifies the caller in [0, n). A group that never had
// SetTelemetry attached runs the bare engine with zero instrumentation cost
// and zero steady-state allocations.
//
//elan:hotpath
func (g *Group) AllReduce(rank int, vec []float64) error {
	return g.allReduceTagged(telemetry.TraceContext{}, rank, vec, -1)
}

// AllReduceBucket is AllReduce for one gradient bucket: identical reduction,
// but the telemetry span additionally carries the bucket index so overlap
// schedules can be read off the trace. bucket must be >= 0.
func (g *Group) AllReduceBucket(rank int, vec []float64, bucket int) error {
	return g.allReduceTagged(telemetry.TraceContext{}, rank, vec, bucket)
}

// AllReduceBucketFrom is AllReduceBucket with a causal parent: the span
// becomes a remote child of the given trace context (typically the rank's
// step span), so overlapped reductions render inside the step that issued
// them instead of as disconnected roots. A zero parent behaves exactly like
// AllReduceBucket.
func (g *Group) AllReduceBucketFrom(parent telemetry.TraceContext, rank int, vec []float64, bucket int) error {
	return g.allReduceTagged(parent, rank, vec, bucket)
}

func (g *Group) allReduceTagged(parent telemetry.TraceContext, rank int, vec []float64, bucket int) error {
	if !g.instrumented {
		return g.reduce(rank, vec)
	}
	var span *telemetry.Span
	if parent.Valid() {
		span = telemetry.StartRemote(g.tr, "collective.allreduce", parent)
	} else {
		span = g.tr.StartSpan("collective.allreduce")
	}
	span.Annotate("link", g.link)
	span.AnnotateInt("rank", rank)
	span.AnnotateInt("ranks", g.n)
	span.AnnotateInt("elements", len(vec))
	span.AnnotateInt("chunk", (len(vec)+g.n-1)/g.n)
	if bucket >= 0 {
		span.AnnotateInt("bucket", bucket)
	}
	start := g.clk.Now()
	err := g.reduce(rank, vec)
	g.mSeconds.Observe(g.clk.Since(start).Seconds())
	g.mOps.Inc()
	g.mElements.Add(int64(len(vec)))
	if err != nil {
		span.Annotate("error", err.Error())
	}
	span.End()
	return err
}

// reduce is the two-phase ring over all ranks: a reduce-scatter, then an
// allgather. Outgoing chunks are copied into recycled arena buffers (see
// rankScratch) instead of fresh allocations: the send transfers buffer
// ownership to the successor rank and each receive deposits the
// predecessor's buffer for reuse.
//
//elan:hotpath
func (g *Group) reduce(rank int, vec []float64) error {
	if rank < 0 || rank >= g.n {
		return fmt.Errorf("collective: rank %d out of [0, %d)", rank, g.n) //elan:vet-allow hotpathalloc — cold error path, never taken in the zero-alloc steady state
	}
	if g.n == 1 {
		return nil
	}
	g.Prime(rank, len(vec))
	if err := g.reduceScatter(rank, vec); err != nil {
		return err
	}
	return g.allGather(rank, vec)
}

// Prime sizes rank's chunk scratch for vectors of up to maxElems values: no
// AllReduce of that length or a shorter one primes again. A caller that
// reduces vectors of several lengths (the ddp reducer's buckets) primes once
// to the longest; one that does not call Prime gets the same from its first
// AllReduce, and a re-prime whenever a longer vector arrives. Like AllReduce
// it belongs to the rank's own goroutine.
//
//elan:hotpath
func (g *Group) Prime(rank, maxElems int) {
	if g.n == 1 || rank < 0 || rank >= g.n {
		return
	}
	// Buffers migrate around the ring, so every rank primes to the same
	// group-wide bound: the longest chunk.
	if sc, maxChunk := &g.scratch[rank], ceilDiv(maxElems, g.n); sc.capPer < maxChunk {
		g.pool.prime(sc, maxChunk, g.n)
	}
}

// reduceScatter runs the reduce-scatter half of the ring, splitting vec into
// n chunks. At step s (0-based), rank r sends chunk (r-s) mod n to its
// successor and receives chunk (r-s-1) mod n from its predecessor,
// accumulating into it. On return, rank r holds the fully reduced chunk
// (r+1) mod n; chunk c's value is the left fold of the ranks' values in
// ascending rank order starting at rank c.
//
//elan:hotpath
func (g *Group) reduceScatter(rank int, vec []float64) error {
	n := g.n
	sc := &g.scratch[rank]
	for s := 0; s < n-1; s++ {
		sendIdx := ((rank-s)%n + n) % n
		lo, hi := bounds(len(vec), n, sendIdx)
		out := sc.get(hi - lo)
		copy(out, vec[lo:hi])
		if err := g.send(rank, chunkMsg{idx: sendIdx, data: out}); err != nil {
			return err
		}
		m, err := g.recv(rank)
		if err != nil {
			return err
		}
		lo, hi = bounds(len(vec), n, m.idx)
		if hi-lo != len(m.data) {
			return fmt.Errorf("collective: rank %d got chunk %d of %d values, want %d (vector length mismatch across ranks?)", //elan:vet-allow hotpathalloc — cold error path, never taken in the zero-alloc steady state
				rank, m.idx, len(m.data), hi-lo)
		}
		for i, v := range m.data {
			vec[lo+i] += v
		}
		sc.put(m.data)
	}
	return nil
}

// allGather runs the allgather half of the ring. It requires the
// reduce-scatter ownership invariant: rank r holds the final value of chunk
// (r+1) mod n. At step s, rank r sends chunk (r+1-s) mod n and receives
// chunk (r-s) mod n, overwriting it; after n-1 steps every rank holds every
// chunk.
//
//elan:hotpath
func (g *Group) allGather(rank int, vec []float64) error {
	n := g.n
	sc := &g.scratch[rank]
	for s := 0; s < n-1; s++ {
		sendIdx := ((rank+1-s)%n + n) % n
		lo, hi := bounds(len(vec), n, sendIdx)
		out := sc.get(hi - lo)
		copy(out, vec[lo:hi])
		if err := g.send(rank, chunkMsg{idx: sendIdx, data: out}); err != nil {
			return err
		}
		m, err := g.recv(rank)
		if err != nil {
			return err
		}
		lo, hi = bounds(len(vec), n, m.idx)
		if hi-lo != len(m.data) {
			return fmt.Errorf("collective: rank %d allgather chunk %d size mismatch", rank, m.idx) //elan:vet-allow hotpathalloc — cold error path, never taken in the zero-alloc steady state
		}
		copy(vec[lo:hi], m.data)
		sc.put(m.data)
	}
	return nil
}

// AllReduceMean is AllReduce followed by dividing by the group size, which
// is how data-parallel training averages gradients.
func (g *Group) AllReduceMean(rank int, vec []float64) error {
	if err := g.AllReduce(rank, vec); err != nil {
		return err
	}
	inv := 1 / float64(g.n)
	for i := range vec {
		vec[i] *= inv
	}
	return nil
}

// bounds returns the [lo, hi) range of part idx when total elements are
// split into parts pieces, the first (total % parts) pieces one element
// larger — the chunking of the ring.
func bounds(total, parts, idx int) (int, int) {
	base := total / parts
	rem := total % parts
	lo := idx*base + min(idx, rem)
	size := base
	if idx < rem {
		size++
	}
	return lo, lo + size
}

// ceilDiv returns ceil(a/b) for non-negative a and positive b.
func ceilDiv(a, b int) int {
	return (a + b - 1) / b
}
