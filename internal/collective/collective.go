// Package collective implements the collective communication used by
// data-parallel training: an allreduce across in-process workers, plus
// group construction and reconstruction, which the elastic runtime performs
// after every resource adjustment (Section II, step 5).
//
// Every group runs the same owner-computes exchange in shared memory,
// whatever its placement: the ranks publish their vectors, and the owner
// of each of n chunks folds that chunk across the ranks and hands the result
// back to every rank, with two barriers ordering it all (Group). The
// accumulation order of a reduction therefore depends on the rank count
// alone (ReferenceAllReduce). A placement on the hardware tree (Topology)
// only names the link level the group's telemetry reports; the hierarchy
// lives in the analytic cost model (perfmodel.CommModel.Hierarchical), where
// links differ. Each rank runs on its own goroutine, so the gradient math of
// the pure-Go training substrate is genuinely distributed rather than
// simulated.
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

// ErrAborted is returned by a commit exchange on every rank when some rank
// published OK == false: no rank ran its Commit.
var ErrAborted = errors.New("collective: a rank withdrew from the commit")

// errCommitShape is returned by an exchange on every rank when the ranks
// disagree on whether it commits, or publish state arenas of different
// lengths.
var errCommitShape = errors.New("collective: ranks disagree on the commit or its state length")

// barrier is a reusable generation barrier for a group's n ranks, a mutex
// and a condition variable: ranks outnumber processors on a busy host, so a
// waiter sleeps rather than spins.
type barrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	n       int
	arrived int
	gen     uint64
	closed  bool
}

// wait blocks until all n ranks have arrived in the current generation.
// At entry, the first of an exchange's two barriers, a close releases the
// ranks still waiting with ErrClosed: none has touched a peer's vector yet.
// At exit a close is reported only once every rank has arrived, because a
// rank that passed entry may still be writing its chunk into its peers'
// vectors; it arrives without blocking on anything, so no rank waits long.
//
//elan:hotpath
func (b *barrier) wait(entry bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if entry && b.closed {
		return ErrClosed
	}
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
	}
	for gen == b.gen {
		if entry && b.closed {
			return ErrClosed
		}
		b.cond.Wait()
	}
	if b.closed && !entry {
		return ErrClosed
	}
	return nil
}

// Group is a communication group of n ranks. All ranks must call AllReduce
// collectively; the calls block until the collective completes. A Group is
// safe for concurrent use by its n member goroutines.
//
// An exchange runs on the calling ranks' own goroutines, in shared memory,
// between two barriers: every rank publishes its vector in vecs and waits at
// entry; rank c then owns chunk c of every vector — it folds the ranks'
// chunk c into its own in ReferenceAllReduce's order, scales it for a mean,
// and then does one of three things: copies the result into its peers'
// chunk c (AllReduce*), keeps it (ReduceScatterMeanBucket), or runs the
// caller's Commit over every rank's published state arena
// (ReduceScatterMeanCommit) — and every rank waits at exit. Between the two
// barriers chunk c of any vector is touched by rank c alone, and the
// barriers order every cross-rank access.
type Group struct {
	n       int
	vecs    [][]float64
	commits []*Commit   // each rank's Commit for the exchange in progress, nil for none
	states  [][]float64 // the commits' State arenas, handed to Commit.Apply
	bar     barrier

	// Telemetry (SetTelemetry); an un-instrumented group takes the
	// AllReduce fast path and records nothing at zero cost.
	instrumented bool
	tr           *telemetry.Recorder
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
	g := &Group{n: n, vecs: make([][]float64, n), commits: make([]*Commit, n), states: make([][]float64, n)}
	g.bar.n = n
	g.bar.cond.L = &g.bar.mu
	return g, nil
}

// NewGroupWithTopology constructs a group with one rank per rank of t. The
// placement does not shape the reduction: every group runs the same
// exchange, so the result depends on the rank count alone, as
// ReferenceAllReduce specifies. Callers pass the topology's LinkLabelOf to
// SetTelemetry.
func NewGroupWithTopology(t Topology) (*Group, error) {
	return NewGroup(t.Ranks())
}

// SetTelemetry attaches tracing and metrics to the group: every AllReduce
// records one span per rank tagged with the link level, rank, vector
// length, group size and chunk size — the shape of the paper's allreduce
// cost-by-link-level accounting (Section IV). link labels the closest
// common link of the group's placement (topology.LinkLevel.String(), or
// "inproc" for the in-process goroutine substrate). Call before handing
// the group to its ranks; the elastic runtime re-attaches after every
// group reconstruction. Nil tracer/registry components stay disabled.
func (g *Group) SetTelemetry(tr *telemetry.Recorder, reg *telemetry.Registry, clk clock.Clock, link string) {
	g.instrumented = true
	g.tr = tr
	if clk == nil {
		clk = clock.Wall{}
	}
	g.clk = clk
	g.link = link
	g.mOps = reg.Counter("collective_allreduce_total")
	g.mSeconds = reg.Histogram("collective_allreduce_seconds")
	g.mElements = reg.Counter("collective_allreduce_elements_total")
}

// Tracer returns the group's recorder (nil until SetTelemetry attaches
// one), so per-rank callers — the ddp reducer, the worker agents — can open
// spans on the same recorder the allreduce spans land in.
func (g *Group) Tracer() *telemetry.Recorder { return g.tr }

// Size returns the number of ranks.
func (g *Group) Size() int { return g.n }

// Close aborts pending collectives: ranks waiting to start one, and every
// rank that calls one later, return ErrClosed; ranks already inside one
// finish it and return ErrClosed too, except that a commit every rank is
// past the entry of returns nil (ReduceScatterMeanCommit). Safe to call
// repeatedly.
func (g *Group) Close() {
	g.bar.mu.Lock()
	g.bar.closed = true
	g.bar.mu.Unlock()
	g.bar.cond.Broadcast()
}

// A Commit is what the owners run inside a step's last exchange instead of
// handing the reduced chunk out (ReduceScatterMeanCommit). Its entry barrier
// is the commit point: either every rank runs Apply, or none does.
type Commit struct {
	// State is the caller's state arena, published for the exchange.
	// Between the two barriers the owners of its ranges write it.
	State []float64
	// OK says the caller's step succeeded up to this exchange. A rank that
	// publishes false makes every rank skip Apply and return ErrAborted.
	OK bool
	// Apply runs on every rank between the barriers, after the rank's
	// fold, once every rank has published OK and a State of one length;
	// states[r] is rank r's State. It must write only the ranges the
	// calling rank owns (Chunk), in any rank's arena. The caller sets it
	// once and reuses the Commit, so a step builds no closure.
	Apply func(states [][]float64)
}

// What an exchange's owner does with its reduced chunk.
type handout uint8

const (
	toPeers   handout = iota // copy it into every peer's vector: an allreduce
	kept                     // leave it in the owner's vector: a reduce-scatter
	committed                // run the caller's Commit
)

// AllReduce sums vec elementwise across all ranks, in place. Every rank must
// call it with a vector of identical length; on return every rank holds the
// global sum. rank identifies the caller in [0, n). A group that never had
// SetTelemetry attached runs the bare exchange with zero instrumentation
// cost and zero allocations.
//
//elan:hotpath
func (g *Group) AllReduce(rank int, vec []float64) error {
	return g.exchange(telemetry.TraceContext{}, rank, vec, -1, false, toPeers, nil)
}

// AllReduceMean is AllReduce followed by multiplying by 1/n, which is how
// data-parallel training averages gradients. Each chunk's owner scales it
// once, before handing it out.
//
//elan:hotpath
func (g *Group) AllReduceMean(rank int, vec []float64) error {
	return g.exchange(telemetry.TraceContext{}, rank, vec, -1, true, toPeers, nil)
}

// AllReduceMeanBucket is AllReduceMean for one gradient bucket, with a
// causal parent: the span becomes a remote child of parent (typically the
// rank's step span) and carries the bucket index, so a step's reductions
// render inside the step that issued them. A zero parent makes the span a
// root. bucket must be >= 0.
//
//elan:hotpath
func (g *Group) AllReduceMeanBucket(parent telemetry.TraceContext, rank int, vec []float64, bucket int) error {
	return g.exchange(parent, rank, vec, bucket, true, toPeers, nil)
}

// ReduceScatterMeanBucket is AllReduceMeanBucket without the hand-out: on
// return the caller's chunk of vec, Chunk(len(vec), n, rank), holds the
// mean, and the rest of vec is as the caller left it.
//
//elan:hotpath
func (g *Group) ReduceScatterMeanBucket(parent telemetry.TraceContext, rank int, vec []float64, bucket int) error {
	return g.exchange(parent, rank, vec, bucket, true, kept, nil)
}

// ReduceScatterMeanCommit is ReduceScatterMeanBucket for a step's last
// bucket, with c run between its barriers: after its fold each rank calls
// c.Apply with every rank's c.State, unless some rank published c.OK ==
// false (every rank returns ErrAborted) or the ranks disagree on the call.
// A Close before every rank is past entry leaves every State as it was and
// returns ErrClosed; once every rank is past entry every rank applies, and
// the call returns nil even if the group closes meanwhile.
//
//elan:hotpath
func (g *Group) ReduceScatterMeanCommit(parent telemetry.TraceContext, rank int, vec []float64, bucket int, c *Commit) error {
	return g.exchange(parent, rank, vec, bucket, true, committed, c)
}

// exchange runs one reduction, with a span and metrics once SetTelemetry
// has instrumented the group.
//
//elan:hotpath
func (g *Group) exchange(parent telemetry.TraceContext, rank int, vec []float64, bucket int, mean bool, out handout, c *Commit) error {
	if !g.instrumented {
		return g.reduce(rank, vec, mean, out, c)
	}
	span := g.tr.StartRemoteSpan("collective.allreduce", parent)
	span.Annotate("link", g.link)
	span.AnnotateInt("rank", rank)
	span.AnnotateInt("ranks", g.n)
	span.AnnotateInt("elements", len(vec))
	span.AnnotateInt("chunk", (len(vec)+g.n-1)/g.n)
	if bucket >= 0 {
		span.AnnotateInt("bucket", bucket)
	}
	switch out {
	case kept:
		span.Annotate("op", "reduce_scatter")
	case committed:
		span.Annotate("op", "commit")
	}
	start := g.clk.Now()
	err := g.reduce(rank, vec, mean, out, c)
	g.mSeconds.Observe(g.clk.Since(start).Seconds())
	g.mOps.Inc()
	g.mElements.Add(int64(len(vec)))
	if err != nil {
		span.Annotate("error", err.Error())
	}
	span.End()
	return err
}

// reduce is the owner-computes exchange (see Group). Rank c folds chunk c of
// rank c+1, c+2, ... (mod n) into its own chunk c — the left fold in
// ascending rank order starting at rank c, ReferenceAllReduce's order —
// scales it by 1/n for a mean, and then hands it out as out says. c is the
// caller's Commit when out is committed, and nil otherwise.
//
//elan:hotpath
func (g *Group) reduce(rank int, vec []float64, mean bool, out handout, c *Commit) error {
	if rank < 0 || rank >= g.n {
		return fmt.Errorf("collective: rank %d out of [0, %d)", rank, g.n)
	}
	n := g.n
	g.vecs[rank] = vec
	g.commits[rank] = c
	if c != nil {
		g.states[rank] = c.State
	}
	if err := g.bar.wait(true); err != nil {
		return err
	}
	// Every rank reads the same lengths and flags, so all of them fail
	// together, before any has written.
	var err error
	for r, v := range g.vecs {
		if len(v) != len(vec) {
			err = fmt.Errorf("collective: rank %d has %d values, rank %d has %d: vector lengths differ across ranks", //elan:vet-allow hotpathalloc — cold error path, never taken in the zero-alloc steady state
				r, len(v), rank, len(vec))
			break
		}
	}
	if err == nil {
		err = g.checkCommits(c)
	}
	if err == nil {
		lo, hi := Chunk(len(vec), n, rank)
		own := vec[lo:hi]
		g.fold(own, rank, lo)
		if mean {
			inv := 1 / float64(n)
			for i := range own {
				own[i] *= inv
			}
		}
		switch out {
		case toPeers:
			for s := 1; s < n; s++ {
				copy(g.vecs[(rank+s)%n][lo:hi], own)
			}
		case committed:
			c.Apply(g.states)
		}
	}
	if xErr := g.bar.wait(false); xErr != nil && (out != committed || err != nil) {
		// Past a commit's entry every rank applies, so a Close now does
		// not undo the step: the commit reports success.
		return xErr
	}
	return err
}

// checkCommits reports whether every rank published a Commit exactly when c
// is one, with OK set and a State as long as c's. Every rank reads the same
// flags, so every rank gets the same answer.
//
//elan:hotpath
func (g *Group) checkCommits(c *Commit) error {
	aborted := false
	for _, pc := range g.commits {
		if (pc == nil) != (c == nil) {
			return errCommitShape
		}
		if c == nil {
			continue
		}
		if len(pc.State) != len(c.State) {
			return errCommitShape
		}
		aborted = aborted || !pc.OK
	}
	if aborted {
		return ErrAborted
	}
	return nil
}

// fold adds the chunk at lo of ranks rank+1, rank+2, ... (mod n) into own,
// the caller's copy of that chunk, in that order. It takes up to four ranks
// a pass over own, so own is loaded and stored once a pass rather than once
// a rank; each element still sees the same adds in the same order.
//
//elan:hotpath
func (g *Group) fold(own []float64, rank, lo int) {
	n, m := g.n, len(own)
	s := 1
	for ; s+3 < n; s += 4 {
		a, b, c, d := g.peer(rank+s, lo, m), g.peer(rank+s+1, lo, m), g.peer(rank+s+2, lo, m), g.peer(rank+s+3, lo, m)
		for i := range own {
			own[i] = own[i] + a[i] + b[i] + c[i] + d[i]
		}
	}
	switch n - s {
	case 3:
		a, b, c := g.peer(rank+s, lo, m), g.peer(rank+s+1, lo, m), g.peer(rank+s+2, lo, m)
		for i := range own {
			own[i] = own[i] + a[i] + b[i] + c[i]
		}
	case 2:
		a, b := g.peer(rank+s, lo, m), g.peer(rank+s+1, lo, m)
		for i := range own {
			own[i] = own[i] + a[i] + b[i]
		}
	case 1:
		a := g.peer(rank+s, lo, m)
		for i := range own {
			own[i] += a[i]
		}
	}
}

// peer is the m values at lo of rank r's vector, r taken mod n.
func (g *Group) peer(r, lo, m int) []float64 {
	return g.vecs[r%g.n][lo : lo+m]
}

// Chunk returns the [lo, hi) range of a vector of length elements that rank
// owns in a group of ranks: the split the exchange folds by, the first
// (length % ranks) chunks one element longer.
//
//elan:hotpath
func Chunk(length, ranks, rank int) (int, int) {
	base := length / ranks
	rem := length % ranks
	lo := rank*base + min(rank, rem)
	size := base
	if rank < rem {
		size++
	}
	return lo, lo + size
}
