package collective

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/elan-sys/elan/internal/topology"
)

// runCollective runs fn on n goroutines, one per rank, and returns the first
// error observed.
func runCollective(n int, fn func(rank int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = fn(r)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func TestNewGroupValidation(t *testing.T) {
	if _, err := NewGroup(0); err == nil {
		t.Fatal("zero-size group accepted")
	}
	g, err := NewGroup(4)
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	if g.Size() != 4 {
		t.Fatalf("Size = %d", g.Size())
	}
}

func TestAllReduceSingleRank(t *testing.T) {
	g, err := NewGroup(1)
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	vec := []float64{1, 2, 3}
	if err := g.AllReduce(0, vec); err != nil {
		t.Fatalf("AllReduce: %v", err)
	}
	if vec[0] != 1 || vec[1] != 2 || vec[2] != 3 {
		t.Fatalf("single-rank allreduce changed data: %v", vec)
	}
}

func TestAllReduceSums(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		for _, length := range []int{1, 5, 8, 17, 100} {
			g, err := NewGroup(n)
			if err != nil {
				t.Fatalf("NewGroup: %v", err)
			}
			vecs := make([][]float64, n)
			want := make([]float64, length)
			for r := range vecs {
				vecs[r] = make([]float64, length)
				for i := range vecs[r] {
					vecs[r][i] = float64(r*1000 + i)
					want[i] += vecs[r][i]
				}
			}
			if err := runCollective(n, func(rank int) error {
				return g.AllReduce(rank, vecs[rank])
			}); err != nil {
				t.Fatalf("n=%d len=%d: %v", n, length, err)
			}
			for r := 0; r < n; r++ {
				for i := range want {
					if math.Abs(vecs[r][i]-want[i]) > 1e-9 {
						t.Fatalf("n=%d len=%d rank=%d idx=%d: got %v want %v",
							n, length, r, i, vecs[r][i], want[i])
					}
				}
			}
			g.Close()
		}
	}
}

func TestAllReduceMean(t *testing.T) {
	n := 4
	g, err := NewGroup(n)
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	defer g.Close()
	vecs := make([][]float64, n)
	for r := range vecs {
		vecs[r] = []float64{float64(r)}
	}
	if err := runCollective(n, func(rank int) error {
		return g.AllReduceMean(rank, vecs[rank])
	}); err != nil {
		t.Fatalf("AllReduceMean: %v", err)
	}
	want := (0.0 + 1 + 2 + 3) / 4
	for r := 0; r < n; r++ {
		if math.Abs(vecs[r][0]-want) > 1e-12 {
			t.Fatalf("rank %d mean = %v, want %v", r, vecs[r][0], want)
		}
	}
}

func TestAllReduceRankValidation(t *testing.T) {
	g, err := NewGroup(2)
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	defer g.Close()
	if err := g.AllReduce(2, []float64{1}); err == nil {
		t.Fatal("rank out of range accepted")
	}
	if err := g.AllReduce(-1, []float64{1}); err == nil {
		t.Fatal("negative rank accepted")
	}
}

func TestAllReduceRepeated(t *testing.T) {
	// Multiple sequential collectives on one group (training iterations).
	n := 4
	g, err := NewGroup(n)
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	defer g.Close()
	for iter := 0; iter < 10; iter++ {
		vecs := make([][]float64, n)
		for r := range vecs {
			vecs[r] = []float64{1}
		}
		if err := runCollective(n, func(rank int) error {
			return g.AllReduce(rank, vecs[rank])
		}); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for r := 0; r < n; r++ {
			if vecs[r][0] != float64(n) {
				t.Fatalf("iter %d rank %d: %v", iter, r, vecs[r][0])
			}
		}
	}
}

func TestCloseUnblocks(t *testing.T) {
	g, err := NewGroup(2)
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		// Only rank 0 joins; it blocks until Close.
		done <- g.AllReduce(0, []float64{1, 2})
	}()
	g.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestGroupReconstruction(t *testing.T) {
	// Scaling out: close the old group, build a bigger one, collectives
	// still work — this is the "communication group reconstruction" of the
	// adjustment procedure.
	old, err := NewGroup(2)
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	vecs := [][]float64{{1}, {2}}
	if err := runCollective(2, func(r int) error { return old.AllReduce(r, vecs[r]) }); err != nil {
		t.Fatalf("old group: %v", err)
	}
	old.Close()
	bigger, err := NewGroup(4)
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	defer bigger.Close()
	vecs4 := [][]float64{{1}, {1}, {1}, {1}}
	if err := runCollective(4, func(r int) error { return bigger.AllReduce(r, vecs4[r]) }); err != nil {
		t.Fatalf("new group: %v", err)
	}
	for r := 0; r < 4; r++ {
		if vecs4[r][0] != 4 {
			t.Fatalf("rank %d: %v", r, vecs4[r][0])
		}
	}
}

func TestAllReduceMatchesSequentialSum(t *testing.T) {
	// Property: the allreduce equals a sequential elementwise sum for
	// random vectors, sizes and group sizes.
	prop := func(seed int64, nRaw, lenRaw uint8) bool {
		n := int(nRaw%7) + 2 // 2..8 ranks
		length := int(lenRaw%50) + 1
		rng := rand.New(rand.NewSource(seed))
		g, err := NewGroup(n)
		if err != nil {
			return false
		}
		defer g.Close()
		vecs := make([][]float64, n)
		want := make([]float64, length)
		for r := range vecs {
			vecs[r] = make([]float64, length)
			for i := range vecs[r] {
				vecs[r][i] = rng.NormFloat64()
				want[i] += vecs[r][i]
			}
		}
		if err := runCollective(n, func(rank int) error {
			return g.AllReduce(rank, vecs[rank])
		}); err != nil {
			return false
		}
		for r := 0; r < n; r++ {
			for i := range want {
				if math.Abs(vecs[r][i]-want[i]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// placement builds a rank→GPU placement putting counts[j] consecutive ranks
// on node j.
func placement(counts ...int) []topology.GPUID {
	var place []topology.GPUID
	for node, c := range counts {
		for i := 0; i < c; i++ {
			place = append(place, topology.GPUID{Node: node, Index: i})
		}
	}
	return place
}

// interleaved builds a placement striping n ranks round-robin over nodes
// GPUs, so node member ranks are non-contiguous.
func interleaved(n, nodes int) []topology.GPUID {
	place := make([]topology.GPUID, n)
	for r := 0; r < n; r++ {
		place[r] = topology.GPUID{Node: r % nodes, Index: r / nodes}
	}
	return place
}

func mustClustered(t *testing.T, place []topology.GPUID) *Clustered {
	t.Helper()
	c, err := NewClustered(place)
	if err != nil {
		t.Fatalf("NewClustered: %v", err)
	}
	return c
}

// runTopo runs one allreduce over all ranks of a fresh group for topo and
// returns the per-rank result vectors.
func runTopo(t *testing.T, topo Topology, vecs [][]float64) [][]float64 {
	t.Helper()
	g, err := NewGroupWithTopology(topo)
	if err != nil {
		t.Fatalf("NewGroupWithTopology: %v", err)
	}
	defer g.Close()
	out := make([][]float64, len(vecs))
	for r := range vecs {
		out[r] = append([]float64(nil), vecs[r]...)
	}
	if err := runCollective(g.Size(), func(rank int) error {
		return g.AllReduce(rank, out[rank])
	}); err != nil {
		t.Fatalf("allreduce: %v", err)
	}
	return out
}

// expectBits asserts got matches want bit for bit (so ±0 and NaN payloads
// are distinguished, unlike ==).
func expectBits(t *testing.T, label string, rank int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s rank %d: length %d, want %d", label, rank, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s rank %d elem %d: %v (%#x), want %v (%#x)",
				label, rank, i, got[i], math.Float64bits(got[i]),
				want[i], math.Float64bits(want[i]))
		}
	}
}

// expectReference runs one allreduce of vecs on a group for topo and holds
// every rank's result to ReferenceAllReduce bit for bit.
func expectReference(t *testing.T, label string, topo Topology, vecs [][]float64) {
	t.Helper()
	want, err := ReferenceAllReduce(vecs)
	if err != nil {
		t.Fatalf("%s reference: %v", label, err)
	}
	for r, got := range runTopo(t, topo, vecs) {
		expectBits(t, label, r, got, want)
	}
}

func randVecs(rng *rand.Rand, n, length int) [][]float64 {
	vecs := make([][]float64, n)
	for r := range vecs {
		vecs[r] = make([]float64, length)
		for i := range vecs[r] {
			// Wide exponent spread makes addition order-sensitive, so any
			// deviation from the specified accumulation order shows up.
			vecs[r][i] = rng.NormFloat64() * math.Pow(2, float64(rng.Intn(40)-20))
		}
	}
	return vecs
}

// TestFlatMatchesReferenceBitwise pins the exchange to the executable order
// spec on order-sensitive inputs.
func TestFlatMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		for _, length := range []int{1, 2, 5, 17, 100} {
			expectReference(t, "flat", Flat(n), randVecs(rng, n, length))
		}
	}
}

// The Hierarchical* tests below date from a second, two-tier engine that
// multi-node placements used to run. Every group now runs the one exchange,
// and these tests pin what that buys: a placement across nodes — ragged,
// striped, resized, reused — reduces exactly as a flat group does, so the
// result depends on the rank count alone.

// TestHierarchicalMatchesReferenceBitwise holds multi-node placements of
// adversarial shape — 1×1, ragged chunk remainders, node groups of unequal
// size, singleton nodes, ranks not divisible by GPUs per node, striped
// placements — to the placement-free reference.
func TestHierarchicalMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := []struct {
		name  string
		place []topology.GPUID
	}{
		{"2nodes-1x1", placement(1, 1)},
		{"2nodes-4x4", placement(4, 4)},
		{"2nodes-ragged-3x2", placement(3, 2)},
		{"2nodes-ragged-1x4", placement(1, 4)},
		{"3nodes-singletons", placement(1, 1, 1)},
		{"3nodes-mixed-2x1x3", placement(2, 1, 3)},
		{"3nodes-7ranks-3x3x1", placement(3, 3, 1)},
		{"2nodes-striped-8", interleaved(8, 2)},
		{"3nodes-striped-7", interleaved(7, 3)},
	}
	for _, tc := range cases {
		topo := mustClustered(t, tc.place)
		for _, length := range []int{1, 2, 3, 7, 16, 17, 100} {
			expectReference(t, tc.name, topo, randVecs(rng, topo.Ranks(), length))
		}
	}
}

// TestHierarchicalMatchesFlatBitwise: a group on a 2×4 placement ends with
// the same bits as the flat group of 8 on every input — order-sensitive
// floats as well as the exact cases (integers, mixed ±0, Inf patterns) on
// which a different fold order would also agree.
func TestHierarchicalMatchesFlatBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 8
	hier := mustClustered(t, placement(4, 4))
	build := []struct {
		name string
		gen  func(r, i int) float64
	}{
		{"order-sensitive", func(r, i int) float64 {
			return rng.NormFloat64() * math.Pow(2, float64(rng.Intn(40)-20))
		}},
		{"integers", func(r, i int) float64 { return float64(rng.Intn(2001) - 1000) }},
		{"signed-zeros", func(r, i int) float64 {
			if (r+i)%3 == 0 {
				return math.Copysign(0, -1)
			}
			return 0
		}},
		{"all-neg-zero", func(r, i int) float64 { return math.Copysign(0, -1) }},
		{"infinities", func(r, i int) float64 {
			if i%2 == 0 {
				return math.Inf(1)
			}
			return math.Inf(1 - 2*(r%2)) // +Inf and -Inf mix → indefinite NaN
		}},
	}
	for _, tc := range build {
		vecs := make([][]float64, n)
		for r := range vecs {
			vecs[r] = make([]float64, 24)
			for i := range vecs[r] {
				vecs[r][i] = tc.gen(r, i)
			}
		}
		flatOut := runTopo(t, Flat(n), vecs)
		hierOut := runTopo(t, hier, vecs)
		for r := 0; r < n; r++ {
			expectBits(t, tc.name, r, hierOut[r], flatOut[0])
			expectBits(t, tc.name+"/flat-agrees", r, flatOut[r], flatOut[0])
		}
	}
}

// TestHierarchicalNaNPropagation: a canonical NaN contributed by one rank
// must survive the exchange at full payload, on one node and across two
// (the fold only ever adds it to non-NaN values, so the payload choice is
// unambiguous).
func TestHierarchicalNaNPropagation(t *testing.T) {
	const n = 6
	vecs := make([][]float64, n)
	for r := range vecs {
		vecs[r] = make([]float64, 8)
		for i := range vecs[r] {
			vecs[r][i] = float64(i)
		}
	}
	vecs[2][5] = math.NaN()
	want, err := ReferenceAllReduce(vecs)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for _, tc := range []struct {
		name string
		topo Topology
	}{{"hier", mustClustered(t, placement(3, 3))}, {"flat", Flat(n)}} {
		got := runTopo(t, tc.topo, vecs)
		for r := 0; r < n; r++ {
			if !math.IsNaN(got[r][5]) {
				t.Fatalf("%s rank %d: NaN did not propagate: %v", tc.name, r, got[r][5])
			}
			for i := 0; i < 8; i++ {
				if i == 5 {
					continue
				}
				if math.Float64bits(got[r][i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s rank %d elem %d: %v, want %v", tc.name, r, i, got[r][i], want[i])
				}
			}
		}
	}
}

// TestHierarchicalElasticResize walks a group through the elastic sequence
// 2 → 8 → 3 on multi-node placements, reconstructing the group each time as
// the adjustment procedure does, and checks every incarnation against the
// reference.
func TestHierarchicalElasticResize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, counts := range [][]int{{1, 1}, {4, 4}, {2, 1}} {
		topo := mustClustered(t, placement(counts...))
		expectReference(t, fmt.Sprint(counts), topo, randVecs(rng, topo.Ranks(), 33))
	}
}

// TestHierarchicalRepeatedAndResizing exercises one group on a three-node
// placement across many collectives with alternating vector lengths: every
// call must match the reference.
func TestHierarchicalRepeatedAndResizing(t *testing.T) {
	g, err := NewGroupWithTopology(mustClustered(t, placement(3, 2, 3)))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	n := g.Size()
	rng := rand.New(rand.NewSource(5))
	for iter, length := range []int{7, 1024, 7, 31, 1, 257, 8} {
		vecs := randVecs(rng, n, length)
		want, err := ReferenceAllReduce(vecs)
		if err != nil {
			t.Fatalf("iter %d reference: %v", iter, err)
		}
		if err := runCollective(n, func(rank int) error {
			return g.AllReduce(rank, vecs[rank])
		}); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for r := 0; r < n; r++ {
			expectBits(t, "repeated", r, vecs[r], want)
		}
	}
}

// TestHierarchicalCloseUnblocks: Close releases a rank blocked in a group
// placed across nodes.
func TestHierarchicalCloseUnblocks(t *testing.T) {
	g, err := NewGroupWithTopology(mustClustered(t, placement(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Only rank 3 joins; it blocks at entry until Close.
		done <- g.AllReduce(3, []float64{1, 2, 3})
	}()
	g.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestTopologySingleNodeIsFlat: a clustered placement on one node reduces
// exactly as a flat group.
func TestTopologySingleNodeIsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	expectReference(t, "single-node", mustClustered(t, placement(4)), randVecs(rng, 4, 13))
}

func TestNewClusteredValidation(t *testing.T) {
	if _, err := NewClustered(nil); err == nil {
		t.Fatal("empty placement accepted")
	}
	dup := []topology.GPUID{{Node: 0, Index: 1}, {Node: 0, Index: 1}}
	if _, err := NewClustered(dup); err == nil {
		t.Fatal("duplicate placement accepted")
	}
}

func TestLinkLabelOf(t *testing.T) {
	if got := LinkLabelOf(Flat(4)); got != "L1" {
		t.Fatalf("flat label %q, want L1", got)
	}
	cross := mustClustered(t, placement(2, 2))
	if got := LinkLabelOf(cross); got != "L4" {
		t.Fatalf("cross-node label %q, want L4", got)
	}
}
