package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/elan-sys/elan/internal/tensor"
)

// trainSteps runs a few SGD steps so that parameters and velocity are both
// away from their initial values.
func trainSteps(t *testing.T, net *MLP, opt *SGD, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	for s := 0; s < steps; s++ {
		x, y := randBatch(rng, 6, net.layers[0].W.Rows, net.layers[len(net.layers)-1].W.Cols)
		net.ZeroGrads()
		out, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		_, grad, err := net.SoftmaxLoss(out, y)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Backward(grad); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(net.Params(), net.Grads()); err != nil {
			t.Fatal(err)
		}
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestReplicaArenaIsTheState pins the zero-copy contract: the replica's
// parameter and velocity matrices are views into one arena laid out
// [params | velocity], so the arena is at all times bit for bit what the
// flatten API exports, and a write through either side shows on the other.
func TestReplicaArenaIsTheState(t *testing.T) {
	sizes := []int{5, 7, 4, 3}
	r, err := NewReplica(rand.New(rand.NewSource(3)), sizes, 0.05, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	trainSteps(t, r.Net, r.Opt, 3)

	arena := r.State()
	n := r.Net.NumParams()
	if len(arena) != n+r.Opt.StateElements() {
		t.Fatalf("arena of %d values, want %d params + %d velocity", len(arena), n, r.Opt.StateElements())
	}
	if exported := r.Opt.FlattenState(r.Net.FlattenParams(nil)); !bitsEqual(exported, arena) {
		t.Fatal("FlattenState(FlattenParams(nil)) differs from the arena")
	}
	var nonzero int
	for _, v := range arena[n:] {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("velocity half of the arena is all zero after training")
	}

	// Every matrix starts exactly where the export order puts it.
	off := 0
	for i, views := range [][]*tensor.Matrix{r.Net.Params(), r.Opt.velocity} {
		for j, m := range views {
			if &m.Data[0] != &arena[off] {
				t.Fatalf("half %d matrix %d does not alias arena[%d]", i, j, off)
			}
			off += len(m.Data)
		}
	}
	if off != len(arena) {
		t.Fatalf("views cover %d of %d arena values", off, len(arena))
	}
	last := r.Net.Params()[len(r.Net.Params())-1]
	last.Data[len(last.Data)-1] = 42.5
	if arena[n-1] != 42.5 {
		t.Fatal("a parameter write did not show in the arena")
	}
	arena[n] = -7.25
	if r.Opt.velocity[0].Data[0] != -7.25 {
		t.Fatal("an arena write did not show in the velocity")
	}
}

// TestReplicaMatchesSeparateConstruction: a seeded replica draws exactly
// the samples NewMLP draws, and training it is bit-identical to training a
// separately allocated MLP + SGD — the arena changes where state lives, not
// what it is.
func TestReplicaMatchesSeparateConstruction(t *testing.T) {
	sizes := []int{6, 9, 3}
	r, err := NewReplica(rand.New(rand.NewSource(11)), sizes, 0.1, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewMLP(rand.New(rand.NewSource(11)), sizes)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewSGD(net.Params(), 0.1, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(r.Net.FlattenParams(nil), net.FlattenParams(nil)) {
		t.Fatal("seeded replica and NewMLP initialized differently")
	}
	trainSteps(t, r.Net, r.Opt, 4)
	trainSteps(t, net, opt, 4)
	if !bitsEqual(r.State(), opt.FlattenState(net.FlattenParams(nil))) {
		t.Fatal("replica diverged from separately allocated MLP + SGD")
	}
}

// TestReplicasShareOneArena: NewReplicas builds each replica as NewReplica
// would from the same source, every one a view of its own stretch of one
// arena laid out [params | velocity] replica after replica; training one
// changes only its stretch.
func TestReplicasShareOneArena(t *testing.T) {
	sizes := [][]int{{6, 9, 3}, {6, 4, 4, 3}}
	reps, arena, err := NewReplicas([]*rand.Rand{rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))}, sizes, 0.1, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i, r := range reps {
		alone, err := NewReplica(rand.New(rand.NewSource(int64(i+1))), sizes[i], 0.1, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		n := len(r.State())
		if &r.State()[0] != &arena[off] || !bitsEqual(arena[off:off+n], alone.State()) {
			t.Fatalf("replica %d is not NewReplica's state at arena[%d:]", i, off)
		}
		off += n
	}
	if off != len(arena) {
		t.Fatalf("replicas cover %d of %d arena values", off, len(arena))
	}
	second := append([]float64(nil), reps[1].State()...)
	trainSteps(t, reps[0].Net, reps[0].Opt, 2)
	if !bitsEqual(reps[1].State(), second) {
		t.Fatal("training replica 0 wrote into replica 1's stretch")
	}
	if _, _, err := NewReplicas([]*rand.Rand{nil}, sizes, 0.1, 0.8); err == nil {
		t.Fatal("one random source for two replicas accepted")
	}
}

// TestReplicaInstall: a joiner's replica (nil rng) starts all zero, Install
// makes it bit-identical to its source with one copy, and a state of the
// wrong length is rejected untouched.
func TestReplicaInstall(t *testing.T) {
	sizes := []int{4, 8, 2}
	src, err := NewReplica(rand.New(rand.NewSource(5)), sizes, 0.05, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	trainSteps(t, src.Net, src.Opt, 2)
	dst, err := NewReplica(nil, sizes, 0.05, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range dst.State() {
		if v != 0 {
			t.Fatalf("uninitialized replica has arena[%d] = %v", i, v)
		}
	}
	if err := dst.Install(src.State()[:len(src.State())-1]); err == nil {
		t.Fatal("short state installed")
	}
	if err := dst.Install(src.State()); err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(dst.State(), src.State()) {
		t.Fatal("installed state differs from its source")
	}
	if &dst.State()[0] == &src.State()[0] {
		t.Fatal("install aliased the source arena instead of copying it")
	}
	// The installed replica trains exactly like its source from here on.
	trainSteps(t, src.Net, src.Opt, 2)
	trainSteps(t, dst.Net, dst.Opt, 2)
	if !bitsEqual(dst.State(), src.State()) {
		t.Fatal("installed replica diverged from its source in training")
	}
	if _, err := NewReplica(nil, []int{4, 0, 2}, 0.05, 0.9); err == nil {
		t.Fatal("zero-width layer accepted")
	}
	if _, err := NewReplica(nil, sizes, 0, 0.9); err == nil {
		t.Fatal("zero learning rate accepted")
	}
}
