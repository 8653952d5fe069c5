package collective

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/elan-sys/elan/internal/racecheck"
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

// succession builds a group for each topology in turn, closing its
// predecessor as the elastic runtime does, and runs one AllReduce of elems
// values on it. Every result must be bit-identical to ReferenceAllReduce;
// with exact set, the very first AllReduce of every successor group must
// also allocate nothing.
func succession(t *testing.T, topos []Topology, elems int, exact bool) {
	t.Helper()
	var prev *Group
	for gen, topo := range topos {
		g, err := NewGroupWithTopology(topo)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			prev.Close()
			if err := prev.AllReduce(0, make([]float64, elems)); err == nil && prev.Size() > 1 {
				t.Fatalf("generation %d: the closed predecessor still reduces", gen)
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
		// barrier waits would then count the runtime refilling it.
		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		// A round on a group of its own first, so that what the runtime
		// allocates the first time this many goroutines block at once is
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
			t.Errorf("generation %d (%d ranks, link %s): first AllReduce of a successor group made %d allocations, want 0",
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

// TestAdoptedScratchFirstAllReduceZeroAllocs: a group that replaced its
// predecessor reduces without allocating from its first call on — growing
// and shrinking, on one node and across two ("hier" names a 2×4 or 2×2
// placement), and between the two as a fleet that scales in onto one node
// and back out does. The exchange works in the ranks' own vectors, so there
// is no scratch to carry from one group to the next. The vector length is a
// multiple of every chunk count involved; other lengths are the next
// test's.
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

// TestAdoptedScratchAnyLength: vector lengths that do not divide into the
// chunks, and groups that grow from 2 ranks to 8 on two nodes and shrink
// again, keep the sums bit-identical to the reference.
func TestAdoptedScratchAnyLength(t *testing.T) {
	for _, elems := range []int{1, 7, 1001, 4099} {
		t.Run(fmt.Sprint(elems), func(t *testing.T) {
			succession(t, []Topology{Flat(2), Flat(3), clustered(t, 4, 4), Flat(1), Flat(5), clustered(t, 1, 3), Flat(2)}, elems, false)
		})
	}
}
