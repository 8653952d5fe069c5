// Package collective implements the collective communication used by
// data-parallel training: a real ring allreduce across in-process workers
// (goroutines connected by channels), plus group construction and
// reconstruction, which the elastic runtime performs after every resource
// adjustment (Section II, step 5).
//
// Groups are topology-aware. A flat placement (every rank on one node) runs
// the textbook two-phase ring: a reduce-scatter of N chunks over N-1 steps
// followed by an allgather over N-1 steps. A placement spanning nodes runs
// the two-tier hierarchy of hierarchical.go: intra-node rings at L1/L2 plus
// a single cross-node leader ring at L4, so only node leaders pay the
// slowest-link price. Each rank runs in its own goroutine, so the gradient
// math of the pure-Go training substrate is genuinely distributed rather
// than simulated.
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
// migrate around the group — what cycles is the arena slot, not a fixed
// buffer — and no rank ever writes a buffer its neighbor might still be
// reading. The free list is a stack because the hierarchical path is
// unbalanced within a call: a node leader absorbs one buffer per member
// during the gather stage and pays them all back during the scatter stage,
// so its pool transiently holds up to g+1 buffers; the stack is built with
// room for that, so depositing never grows it. Once primed, steady state
// performs one withdrawal per deposit and never allocates.
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
// memory when there is any and from a new slab otherwise. Whatever s held
// before is dropped: its memory stays in slabs for the group's successor.
func (p *scratchPool) prime(s *rankScratch, maxChunk int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	clear(s.free)
	s.free = s.free[:0]
	for len(s.free) < 2 {
		b := p.carve(maxChunk)
		if b == nil {
			slab := make([]float64, (2-len(s.free))*maxChunk)
			p.slabs = append(p.slabs, slab)
			p.spare = append(p.spare, slab)
			continue
		}
		s.free = append(s.free, b)
	}
	s.capPer = maxChunk
}

// Group is a communication group of n ranks. All ranks must call AllReduce
// (or Barrier) collectively; the calls block until the collective completes.
// A Group is safe for concurrent use by its n member goroutines.
type Group struct {
	n int
	// ring[i] carries messages from rank i to rank (i+1)%n: the channel
	// fabric of the flat ring and of Broadcast.
	ring []chan chunkMsg
	// pair[a][b] carries messages from rank a to rank b. The global ring
	// edges alias ring[a]; hierarchical groups add the extra directed edges
	// their stages use (intra-node rings, member<->leader, leader ring).
	// Unused edges stay nil.
	pair [][]chan chunkMsg
	// allRanks is [0, 1, ..., n-1]: the member list of the flat ring.
	allRanks []int
	// lay is the two-tier decomposition of the group's topology, nil when
	// the placement fits one node and the group runs the flat ring.
	lay *hierLayout

	// barrier support
	barrierMu  sync.Mutex
	barrierN   int
	barrierGen int
	barrierC   *sync.Cond

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

// NewGroup constructs a communication group with n ranks on the flat
// single-node topology: NewGroupWithTopology(Flat(n)).
func NewGroup(n int) (*Group, error) {
	if n <= 0 {
		return nil, fmt.Errorf("collective: non-positive group size %d", n)
	}
	return NewGroupWithTopology(Flat(n))
}

// NewGroupWithTopology constructs a communication group whose reduction
// structure matches the placement described by t. A single-node placement
// yields the classic flat ring, bit-for-bit identical to NewGroup; a
// placement spanning nodes yields the two-tier hierarchical engine. The
// reduction order of either engine is specified executably by
// ReferenceAllReduce.
func NewGroupWithTopology(t Topology) (*Group, error) {
	n := t.Ranks()
	if n <= 0 {
		return nil, fmt.Errorf("collective: non-positive group size %d", n)
	}
	g := &Group{
		n:        n,
		ring:     make([]chan chunkMsg, n),
		pair:     make([][]chan chunkMsg, n),
		allRanks: make([]int, n),
		closed:   make(chan struct{}),
		scratch:  make([]rankScratch, n),
		tr:       telemetry.Nop{},
	}
	for i := range g.ring {
		g.ring[i] = make(chan chunkMsg, 1)
		g.pair[i] = make([]chan chunkMsg, n)
		g.pair[i][(i+1)%n] = g.ring[i]
		g.allRanks[i] = i
	}
	g.barrierC = sync.NewCond(&g.barrierMu)
	if lay := layoutOf(t); len(lay.nodes) > 1 {
		g.lay = lay
		g.wireHierEdges(lay)
	}
	// Room for a rank's own two buffers plus, on a node leader, one from
	// each other member of its node (rankScratch): deposits never grow the
	// stack.
	for r := range g.scratch {
		room := 2
		if g.lay != nil {
			room += len(g.lay.nodes[g.lay.nodeOf[r]]) - 1
		}
		g.scratch[r].free = make([][]float64, 0, room)
	}
	return g, nil
}

// AdoptScratch makes g the successor of old: old is closed and the memory
// its ranks' chunk buffers were carved from becomes g's, to be carved again
// for g's own size and topology — a group that replaces another of the same
// job allocates no scratch of its own unless it needs more than its
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

// wireHierEdges creates the directed channels the hierarchical stages use
// beyond the global ring: each node's intra ring, each member's two edges
// to its leader, and the leader ring. Edges that coincide with a global
// ring edge reuse it.
func (g *Group) wireHierEdges(lay *hierLayout) {
	edge := func(a, b int) {
		if g.pair[a][b] == nil {
			g.pair[a][b] = make(chan chunkMsg, 1)
		}
	}
	for _, members := range lay.nodes {
		gn := len(members)
		if gn == 1 {
			continue
		}
		leader := members[0]
		for k, r := range members {
			edge(r, members[(k+1)%gn])
			if r != leader {
				edge(r, leader)
				edge(leader, r)
			}
		}
	}
	m := len(lay.leaders)
	for j, l := range lay.leaders {
		edge(l, lay.leaders[(j+1)%m])
	}
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

// Hierarchical reports whether the group runs the two-tier engine (true
// exactly when its topology spans more than one node).
func (g *Group) Hierarchical() bool { return g.lay != nil }

// Close aborts pending collectives; blocked ranks return ErrClosed.
func (g *Group) Close() {
	g.closeOnce.Do(func() {
		close(g.closed)
		g.barrierMu.Lock()
		g.barrierGen++
		g.barrierN = 0
		g.barrierC.Broadcast()
		g.barrierMu.Unlock()
	})
}

// sendTo delivers msg on the directed edge from -> to.
//
//elan:hotpath
func (g *Group) sendTo(from, to int, msg chunkMsg) error {
	select {
	case g.pair[from][to] <- msg:
		return nil
	case <-g.closed:
		return ErrClosed
	}
}

// recvFrom receives the next message on the directed edge from -> to.
//
//elan:hotpath
func (g *Group) recvFrom(from, to int) (chunkMsg, error) {
	select {
	case m := <-g.pair[from][to]:
		return m, nil
	case <-g.closed:
		return chunkMsg{}, ErrClosed
	}
}

//elan:hotpath
func (g *Group) send(from int, msg chunkMsg) error {
	return g.sendTo(from, (from+1)%g.n, msg)
}

//elan:hotpath
func (g *Group) recv(to int) (chunkMsg, error) {
	return g.recvFrom((to-1+g.n)%g.n, to)
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
	if g.lay != nil {
		span.Annotate("intra_link", g.lay.intraLevel.String())
		span.Annotate("leader_link", g.lay.leaderLevel.String())
		span.AnnotateInt("nodes", len(g.lay.nodes))
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

// reduce dispatches to the engine matching the group's topology.
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
	if g.lay != nil {
		return g.hierAllReduce(rank, vec)
	}
	return g.flatAllReduce(rank, vec)
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
	// The largest chunk any stage sends is the vector over the shortest
	// ring: all ranks, or in a hierarchy the leaders or the smallest
	// multi-member node. Buffers migrate between ranks (and, over the leader
	// ring, between nodes), so every rank primes to the same group-wide
	// bound.
	ring := g.n
	if g.lay != nil {
		ring = len(g.lay.nodes)
		if g.lay.minMulti > 0 {
			ring = min(ring, g.lay.minMulti)
		}
	}
	if sc, maxChunk := &g.scratch[rank], ceilDiv(maxElems, ring); sc.capPer < maxChunk {
		g.pool.prime(sc, maxChunk)
	}
}

// flatAllReduce is the uninstrumented two-phase ring over all ranks.
// Outgoing chunks are copied into recycled arena buffers (see rankScratch)
// instead of fresh allocations: the send transfers buffer ownership to the
// successor rank and each receive deposits the predecessor's buffer for
// reuse.
//
//elan:hotpath
func (g *Group) flatAllReduce(rank int, vec []float64) error {
	if err := g.ringReduceScatter(g.allRanks, rank, vec); err != nil {
		return err
	}
	return g.ringAllGather(g.allRanks, rank, vec)
}

// ringReduceScatter runs the reduce-scatter half of the ring over the ranks
// in members (len >= 2), with the caller at position pos, splitting vec
// into len(members) chunks. At step s (0-based), position p sends chunk
// (p-s) mod gn to its successor and receives chunk (p-s-1) mod gn from its
// predecessor, accumulating into it. On return, position p holds the fully
// reduced chunk (p+1) mod gn; chunk c's value is the left fold of the
// members' values in ascending position order starting at position c.
//
//elan:hotpath
func (g *Group) ringReduceScatter(members []int, pos int, vec []float64) error {
	gn := len(members)
	me := members[pos]
	succ := members[(pos+1)%gn]
	pred := members[(pos-1+gn)%gn]
	sc := &g.scratch[me]
	for s := 0; s < gn-1; s++ {
		sendIdx := ((pos-s)%gn + gn) % gn
		lo, hi := bounds(len(vec), gn, sendIdx)
		out := sc.get(hi - lo)
		copy(out, vec[lo:hi])
		if err := g.sendTo(me, succ, chunkMsg{idx: sendIdx, data: out}); err != nil {
			return err
		}
		m, err := g.recvFrom(pred, me)
		if err != nil {
			return err
		}
		lo, hi = bounds(len(vec), gn, m.idx)
		if hi-lo != len(m.data) {
			return fmt.Errorf("collective: rank %d got chunk %d of %d values, want %d (vector length mismatch across ranks?)", //elan:vet-allow hotpathalloc — cold error path, never taken in the zero-alloc steady state
				me, m.idx, len(m.data), hi-lo)
		}
		for i, v := range m.data {
			vec[lo+i] += v
		}
		sc.put(m.data)
	}
	return nil
}

// ringAllGather runs the allgather half of the ring over the ranks in
// members (len >= 2), with the caller at position pos. It requires the
// reduce-scatter ownership invariant: position p holds the final value of
// chunk (p+1) mod gn. At step s, position p sends chunk (p+1-s) mod gn and
// receives chunk (p-s) mod gn, overwriting it; after gn-1 steps every
// member holds every chunk.
//
//elan:hotpath
func (g *Group) ringAllGather(members []int, pos int, vec []float64) error {
	gn := len(members)
	me := members[pos]
	succ := members[(pos+1)%gn]
	pred := members[(pos-1+gn)%gn]
	sc := &g.scratch[me]
	for s := 0; s < gn-1; s++ {
		sendIdx := ((pos+1-s)%gn + gn) % gn
		lo, hi := bounds(len(vec), gn, sendIdx)
		out := sc.get(hi - lo)
		copy(out, vec[lo:hi])
		if err := g.sendTo(me, succ, chunkMsg{idx: sendIdx, data: out}); err != nil {
			return err
		}
		m, err := g.recvFrom(pred, me)
		if err != nil {
			return err
		}
		lo, hi = bounds(len(vec), gn, m.idx)
		if hi-lo != len(m.data) {
			return fmt.Errorf("collective: rank %d allgather chunk %d size mismatch", me, m.idx) //elan:vet-allow hotpathalloc — cold error path, never taken in the zero-alloc steady state
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

// Barrier blocks until all n ranks have called it.
func (g *Group) Barrier() error {
	g.barrierMu.Lock()
	defer g.barrierMu.Unlock()
	select {
	case <-g.closed:
		return ErrClosed
	default:
	}
	gen := g.barrierGen
	g.barrierN++
	if g.barrierN == g.n {
		g.barrierN = 0
		g.barrierGen++
		g.barrierC.Broadcast()
		return nil
	}
	for gen == g.barrierGen {
		g.barrierC.Wait()
		select {
		case <-g.closed:
			return ErrClosed
		default:
		}
	}
	return nil
}

// ceilDiv returns ceil(a/b) for non-negative a and positive b.
func ceilDiv(a, b int) int {
	return (a + b - 1) / b
}
