package collective

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/racecheck"
	"github.com/elan-sys/elan/internal/telemetry"
)

// crew is one resident goroutine per rank of a group, so that a measured
// round of collectives starts none.
type crew struct {
	jobs []chan func(rank int) error
	errs chan error
}

func newCrew(n int) *crew {
	c := &crew{jobs: make([]chan func(int) error, n), errs: make(chan error, n)}
	for r := range c.jobs {
		c.jobs[r] = make(chan func(int) error)
		go func(r int) {
			for job := range c.jobs[r] {
				c.errs <- job(r)
			}
		}(r)
	}
	return c
}

// round runs job once on every rank's goroutine and returns the first error.
func (c *crew) round(job func(rank int) error) error {
	for _, ch := range c.jobs {
		ch <- job
	}
	var first error
	for range c.jobs {
		if err := <-c.errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (c *crew) stop() {
	for _, ch := range c.jobs {
		close(ch)
	}
}

// succession builds a group for each topology in turn, each adopting its
// predecessor's scratch, and runs one AllReduce of elems values on it. Every
// result must be bit-identical to ReferenceAllReduce; with exact set, the
// very first AllReduce of every adopting group must also allocate nothing.
func succession(t *testing.T, topos []Topology, elems int, exact bool) {
	t.Helper()
	var prev *Group
	for gen, topo := range topos {
		g, err := NewGroupWithTopology(topo)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			g.AdoptScratch(prev)
			if err := prev.AllReduce(0, make([]float64, elems)); err == nil && prev.Size() > 1 {
				t.Fatalf("generation %d: the adopted-from group still reduces", gen)
			}
		}
		n := g.Size()
		vecs := make([][]float64, n)
		for r := range vecs {
			vecs[r] = make([]float64, elems)
			for i := range vecs[r] {
				vecs[r][i] = math.Sin(float64(gen*7919+r*104729+i)) * 1e3
			}
		}
		want, err := ReferenceAllReduce(vecs)
		if err != nil {
			t.Fatal(err)
		}
		c := newCrew(n)
		procs := runtime.GOMAXPROCS(1) // as testing.AllocsPerRun does
		// No collection may run from the warm-up through the measured round:
		// one empties the runtime's sudog cache, and the round's blocked
		// selects would then count the runtime refilling it.
		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		// A round on a group of its own first, so that what the runtime
		// allocates the first time this many goroutines block in selects is
		// not counted against g.
		warm, err := NewGroupWithTopology(topo)
		if err != nil {
			t.Fatal(err)
		}
		scrap := make([][]float64, n)
		for r := range scrap {
			scrap[r] = make([]float64, elems)
		}
		if err := c.round(func(r int) error { return warm.AllReduce(r, scrap[r]) }); err != nil {
			t.Fatal(err)
		}
		warm.Close()
		reduce := func(r int) error { return g.AllReduce(r, vecs[r]) }
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = c.round(reduce)
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gcPercent)
		runtime.GOMAXPROCS(procs)
		c.stop()
		if err != nil {
			t.Fatalf("generation %d (%d ranks): %v", gen, n, err)
		}
		if mallocs := after.Mallocs - before.Mallocs; exact && prev != nil && mallocs != 0 {
			t.Errorf("generation %d (%d ranks, link %s): first AllReduce on adopted scratch made %d allocations, want 0",
				gen, n, LinkLabelOf(topo), mallocs)
		}
		for r := range vecs {
			for i, v := range vecs[r] {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Fatalf("generation %d rank %d elem %d: %v, reference %v", gen, r, i, v, want[i])
				}
			}
		}
		prev = g
	}
	prev.Close()
}

func clustered(t *testing.T, counts ...int) Topology {
	t.Helper()
	topo, err := NewClustered(placement(counts...))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestAdoptedScratchFirstAllReduceZeroAllocs: a group that adopted its
// predecessor's scratch reduces without allocating from its first call on —
// growing and shrinking, on one node and across two ("hier" names a 2×4 or
// 2×2 placement), and between the two as a fleet that scales in onto one
// node and back out does. The vector length is a multiple of every chunk
// count involved, so each predecessor's memory is exactly what its
// successor carves; other lengths are the next test's.
func TestAdoptedScratchFirstAllReduceZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race CI job")
	}
	const elems = 12 * 1024
	for name, topos := range map[string][]Topology{
		"flat 2-4-3-2":      {Flat(2), Flat(4), Flat(3), Flat(2)},
		"hier 8-4-8":        {clustered(t, 4, 4), clustered(t, 2, 2), clustered(t, 4, 4)},
		"hier 8 flat 4 3 4": {clustered(t, 4, 4), Flat(4), Flat(3), Flat(4), clustered(t, 4, 4)},
	} {
		t.Run(name, func(t *testing.T) { succession(t, topos, elems, true) })
	}
}

// TestAdoptedScratchAnyLength: when the adopted memory does not divide into
// the successor's chunks, or is simply too little (a 2-rank group's scratch
// under an 8-rank group on two nodes), the successor allocates the
// difference and the sums stay bit-identical to the reference.
func TestAdoptedScratchAnyLength(t *testing.T) {
	for _, elems := range []int{1, 7, 1001, 4099} {
		t.Run(fmt.Sprint(elems), func(t *testing.T) {
			succession(t, []Topology{Flat(2), Flat(3), clustered(t, 4, 4), Flat(1), Flat(5), clustered(t, 1, 3), Flat(2)}, elems, false)
		})
	}
}

// TestPrimeOnceForTheLongestVector: a rank primed to its longest vector does
// not prime again when vectors of other lengths follow in any order — the
// ddp reducer's buckets — where an unprimed one re-primes at every new
// maximum. Priming is counted by the slabs it leaves in the pool: one for
// the whole group each time its ranks prime.
func TestPrimeOnceForTheLongestVector(t *testing.T) {
	const n = 4
	lengths := []int{1000, 12000, 400, 36000, 36000, 8}
	slabs := func(prime bool) int {
		g, err := NewGroup(n)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		c := newCrew(n)
		defer c.stop()
		for _, elems := range lengths {
			vecs := make([][]float64, n)
			for r := range vecs {
				vecs[r] = make([]float64, elems)
			}
			if err := c.round(func(r int) error {
				if prime {
					g.Prime(r, 36000)
				}
				return g.AllReduce(r, vecs[r])
			}); err != nil {
				t.Fatal(err)
			}
		}
		g.pool.mu.Lock()
		defer g.pool.mu.Unlock()
		return len(g.pool.slabs)
	}
	if got := slabs(true); got != 1 {
		t.Errorf("%d slabs with every rank primed to the longest vector, want one", got)
	}
	if got := slabs(false); got != 3 {
		t.Errorf("%d slabs without priming, want one per new maximum (3)", got)
	}
}

// TestScratchRefillIsCounted: a rank whose arena was drained — here by hand,
// in a job by a peer's error path keeping a buffer it owed — still reduces
// correctly, and the allocation it falls back on shows in
// collective_scratch_refill_total instead of passing unseen.
func TestScratchRefillIsCounted(t *testing.T) {
	const n, elems = 3, 300
	g, err := NewGroup(n)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	reg := telemetry.NewRegistry()
	g.SetTelemetry(nil, reg, clock.Wall{}, "inproc")
	c := newCrew(n)
	defer c.stop()
	reduce := func() {
		vecs := make([][]float64, n)
		for r := range vecs {
			vecs[r] = make([]float64, elems)
			for i := range vecs[r] {
				vecs[r][i] = float64(r + i)
			}
		}
		if err := c.round(func(r int) error { return g.AllReduce(r, vecs[r]) }); err != nil {
			t.Fatal(err)
		}
		for r := range vecs {
			for i, v := range vecs[r] {
				if want := float64(n*i + n*(n-1)/2); v != want {
					t.Fatalf("rank %d elem %d: %v, want %v", r, i, v, want)
				}
			}
		}
	}
	reduce()
	refills := reg.Counter("collective_scratch_refill_total")
	if got := refills.Value(); got != 0 {
		t.Fatalf("%d refills in a balanced allreduce, want 0", got)
	}
	g.scratch[1].free = g.scratch[1].free[:0]
	reduce()
	if got := refills.Value(); got == 0 {
		t.Fatal("a drained arena was refilled without being counted")
	}
}
