package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/elan-sys/elan/internal/tensor"
)

// The gradient arena's contract (DESIGN §9), by tests. The sequence the step
// ran before gradients were one vector is kept here as the oracle: an eager
// Zero, the kernels into scratch followed by Axpy, and the optimizer's three
// passes (Scale and two Axpy).

// unfusedLayerGrads is the old Linear.Backward gradient sequence onto
// cleared gradients, for the input l's last Forward cached: kernel output
// into scratch, then added.
func unfusedLayerGrads(t *testing.T, l *Linear, grad *tensor.Matrix) (gradW, gradB *tensor.Matrix) {
	t.Helper()
	gradW, gradB = tensor.MustNew(l.W.Rows, l.W.Cols), tensor.MustNew(1, l.W.Cols)
	gw, gb := tensor.MustNew(l.W.Rows, l.W.Cols), tensor.MustNew(1, l.W.Cols)
	gradW.Zero()
	gradB.Zero()
	for _, err := range []error{
		tensor.MatMulATInto(gw, l.cur.input, grad),
		gradW.Axpy(1, gw),
		grad.SumRowsInto(gb),
		gradB.Axpy(1, gb),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return gradW, gradB
}

// unfusedSGDStep is the old SGD.Step: three passes over each matrix.
func unfusedSGDStep(t *testing.T, lr, mu float64, params, velocity, grads []*tensor.Matrix) {
	t.Helper()
	for i, p := range params {
		v := velocity[i]
		v.Scale(mu)
		if err := v.Axpy(1, grads[i]); err != nil {
			t.Fatal(err)
		}
		if err := p.Axpy(-lr, v); err != nil {
			t.Fatal(err)
		}
	}
}

// Values whose handling a shortcut would get wrong: both zeros, both
// infinities, and two NaNs that differ in sign and payload.
var (
	negZero = math.Copysign(0, -1)
	nanA    = math.Float64frombits(0x7FF8_0000_0000_0A0A)
	nanB    = math.Float64frombits(0xFFF8_0000_0000_0B0B)
	hostile = []float64{negZero, 0, math.Inf(1), math.Inf(-1), nanA, nanB, 1.5, -2.25, negZero, 1e-310}
)

// sprinkle overwrites about one element in every with hostile values.
func sprinkle(rng *rand.Rand, m *tensor.Matrix, every int) {
	for i := range m.Data {
		if rng.Intn(every) == 0 {
			m.Data[i] = hostile[rng.Intn(len(hostile))]
		}
	}
}

// TestDirectWriteMatchesScratchAndAdd: a Backward onto gradients marked zero
// writes the kernel output straight into the gradient arena; the result is
// bit for bit what clearing the gradients, computing into scratch and adding
// gives — for ordinary values and for -0, ±Inf and NaNs of either sign and
// payload in the input and in the loss gradient, for an input with columns
// of nothing but ±0 (units a ReLU switched off), whose gradient rows the
// kernels' zero skip never touches and which must still read +0, and for a
// loss gradient that is all +0 or all -0. The arena starts poisoned, so a row
// the direct write left alone would show.
func TestDirectWriteMatchesScratchAndAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, shape := range []struct{ rows, in, out int }{
		{1, 3, 2}, {2, 5, 4}, {3, 8, 10}, {4, 7, 9}, {5, 16, 6}, {7, 9, 33}, {9, 140, 12}, {60, 12, 5},
	} {
		for _, lossGrad := range []string{"random", "hostile", "zero", "negzero"} {
			for _, input := range []string{"random", "hostile", "deadcols"} {
				net, err := NewMLP(rng, []int{shape.in, shape.out})
				if err != nil {
					t.Fatal(err)
				}
				x := tensor.MustNew(shape.rows, shape.in)
				x.Randn(rng, 1)
				switch input {
				case "hostile":
					sprinkle(rng, x, 4)
				case "deadcols":
					for i := range x.Data {
						if col := i % shape.in; col%2 == 0 {
							x.Data[i] = []float64{0, negZero}[(i/shape.in+col/2)%2]
						}
					}
				}
				grad := tensor.MustNew(shape.rows, shape.out)
				switch lossGrad {
				case "random":
					grad.Randn(rng, 1)
				case "hostile":
					grad.Randn(rng, 1)
					sprinkle(rng, grad, 3)
				case "negzero":
					for i := range grad.Data {
						grad.Data[i] = negZero
					}
				}
				arena := net.GradArena()
				for i := range arena {
					arena[i] = math.NaN()
				}
				if _, err := net.Forward(x); err != nil {
					t.Fatal(err)
				}
				net.ZeroGrads()
				if err := net.Backward(grad); err != nil {
					t.Fatal(err)
				}
				l := net.layers[0]
				if l.gw != nil || l.gb != nil {
					t.Fatal("a Backward onto zero-marked gradients allocated the accumulate scratch")
				}
				wantW, wantB := unfusedLayerGrads(t, l, grad)
				matsBitsEqual(t, "direct write", net.Grads(), []*tensor.Matrix{wantW, wantB})
				// What must read +0 exactly: everything under a zero loss
				// gradient, and a dead column's row of GradW.
				zeroGrad := input != "hostile" && (lossGrad == "zero" || lossGrad == "negzero")
				for i, v := range arena {
					deadRow := input == "deadcols" && lossGrad == "random" && i < shape.in*shape.out && (i/shape.out)%2 == 0
					if (zeroGrad || deadRow) && math.Float64bits(v) != 0 {
						t.Fatalf("%dx%dx%d, %s input, %s loss gradient: gradient %d is %v (bits %#x), want +0",
							shape.rows, shape.in, shape.out, input, lossGrad, i, v, math.Float64bits(v))
					}
				}
			}
		}
	}
}

// TestFusedSGDStepMatchesThreePasses: the one-loop optimizer step leaves
// parameters and velocity bit for bit where Scale, Axpy and Axpy left them,
// for ordinary values and for -0, ±Inf and NaNs of different sign and
// payload in any of parameter, velocity and gradient — with momentum 0.9 and
// with momentum 0, where the velocity's old value only survives as 0*v.
func TestFusedSGDStepMatchesThreePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, mu := range []float64{0, 0.9} {
		for _, every := range []int{0, 2, 5} { // 0: no hostile values
			shapes := [][2]int{{7, 9}, {1, 9}, {33, 4}, {1, 1}}
			var params, grads, wantP, wantV []*tensor.Matrix
			for _, s := range shapes {
				p, g := tensor.MustNew(s[0], s[1]), tensor.MustNew(s[0], s[1])
				p.Randn(rng, 1)
				g.Randn(rng, 1)
				if every > 0 {
					sprinkle(rng, p, every)
					sprinkle(rng, g, every)
				}
				params, grads = append(params, p), append(grads, g)
			}
			opt, err := NewSGD(params, 0.05, mu)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range opt.velocity {
				v.Randn(rng, 1)
				if every > 0 {
					sprinkle(rng, v, every)
				}
			}
			for i := range params {
				wantP, wantV = append(wantP, params[i].Clone()), append(wantV, opt.velocity[i].Clone())
			}
			for step := 0; step < 3; step++ {
				if err := opt.Step(params, grads); err != nil {
					t.Fatal(err)
				}
				unfusedSGDStep(t, 0.05, mu, wantP, wantV, grads)
				matsBitsEqual(t, "parameters", params, wantP)
				matsBitsEqual(t, "velocity", opt.velocity, wantV)
			}
		}
	}
}

// TestSGDStepRejectsMismatchedShapes: a gradient of the right length and the
// wrong shape is an error, as it was when Axpy checked it.
func TestSGDStepRejectsMismatchedShapes(t *testing.T) {
	p := tensor.MustNew(2, 3)
	opt, err := NewSGD([]*tensor.Matrix{p}, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Step([]*tensor.Matrix{p}, []*tensor.Matrix{tensor.MustNew(3, 2)}); err == nil {
		t.Fatal("3x2 gradient for a 2x3 parameter accepted")
	}
}

// backwardOn runs forward, loss and Backward for one batch, without touching
// the zero mark.
func backwardOn(t *testing.T, net *MLP, x *tensor.Matrix, y []int) {
	t.Helper()
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
}

func allZero(vs []float64) bool {
	for _, v := range vs {
		if math.Float64bits(v) != 0 {
			return false
		}
	}
	return true
}

// TestZeroMark pins what ZeroGrads guarantees now that it clears no memory:
// every way of reading the gradients sees zeros after it, whatever the arena
// held — NaN poison included; LoadGrads replaces the mark, so a Backward
// after it accumulates onto the loaded values; and a second Backward without
// ZeroGrads accumulates onto the first.
func TestZeroMark(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sizes := []int{6, 11, 4}
	x1, y1 := randBatch(rng, 5, 6, 4)
	x2, y2 := randBatch(rng, 5, 6, 4)
	build := func() *Replica {
		r, err := NewReplica(rand.New(rand.NewSource(4)), sizes, 0.1, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// g1 and g2 are the two batches' gradients, each from cleared gradients.
	gradsOf := func(x *tensor.Matrix, y []int) []float64 {
		r := build()
		r.Net.ZeroGrads()
		backwardOn(t, r.Net, x, y)
		return r.Net.FlattenGrads(nil)
	}
	g1, g2 := gradsOf(x1, y1), gradsOf(x2, y2)
	sum := make([]float64, len(g1))
	for i := range sum {
		sum[i] = g1[i] + g2[i]
	}

	readers := map[string]func(*MLP) []float64{
		"Grads": func(m *MLP) []float64 {
			return tensor.FlattenTo(nil, m.Grads()...)
		},
		"FlattenGrads": func(m *MLP) []float64 { return m.FlattenGrads(nil) },
		"GradArena":    func(m *MLP) []float64 { return m.GradArena() },
	}
	for name, read := range readers {
		r := build()
		backwardOn(t, r.Net, x1, y1)
		r.Net.ZeroGrads()
		if got := read(r.Net); !allZero(got) {
			t.Fatalf("%s after ZeroGrads reads a stale gradient", name)
		}
		// Settling is not a second ZeroGrads: the next Backward still
		// gives exactly this batch's gradient.
		backwardOn(t, r.Net, x2, y2)
		if !bitsEqual(read(r.Net), g2) {
			t.Fatalf("Backward after ZeroGrads and %s differs from the batch's gradient", name)
		}

		r.Poison()
		if got := read(r.Net); !math.IsNaN(got[0]) || !math.IsNaN(got[len(got)-1]) {
			t.Fatalf("%s does not show a poisoned gradient arena", name)
		}
		r.Net.ZeroGrads()
		if got := read(r.Net); !allZero(got) {
			t.Fatalf("%s after ZeroGrads shows the poison", name)
		}
	}

	r := build()
	r.Poison()
	if err := r.Install(build().State()); err != nil {
		t.Fatal(err)
	}
	r.Net.ZeroGrads()
	backwardOn(t, r.Net, x1, y1)
	if !bitsEqual(r.Net.FlattenGrads(nil), g1) {
		t.Fatal("Backward onto a poisoned, zero-marked arena differs from the batch's gradient")
	}

	r = build()
	r.Net.ZeroGrads()
	if err := r.Net.LoadGrads(g1); err != nil {
		t.Fatal(err)
	}
	backwardOn(t, r.Net, x2, y2)
	if !bitsEqual(r.Net.FlattenGrads(nil), sum) {
		t.Fatal("ZeroGrads, LoadGrads, Backward did not accumulate onto the loaded gradient")
	}

	r = build()
	r.Net.ZeroGrads()
	backwardOn(t, r.Net, x1, y1)
	backwardOn(t, r.Net, x2, y2)
	if !bitsEqual(r.Net.FlattenGrads(nil), sum) {
		t.Fatal("two Backwards after one ZeroGrads did not accumulate")
	}
	for _, l := range r.Net.layers {
		if l.gw == nil || l.gb == nil {
			t.Fatal("accumulating Backward ran without its scratch")
		}
	}
}

// TestGradArenaLayout: the gradient matrices are views into one vector, layer
// by layer, W before B — the FlattenGrads order — with GradRange naming each
// layer's subslice.
func TestGradArenaLayout(t *testing.T) {
	net := newNet(t, 5, 7, 4, 3)
	rng := rand.New(rand.NewSource(2))
	x, y := randBatch(rng, 6, 5, 3)
	net.ZeroGrads()
	backwardOn(t, net, x, y)
	arena := net.GradArena()
	if len(arena) != net.NumParams() {
		t.Fatalf("gradient arena of %d values for %d parameters", len(arena), net.NumParams())
	}
	if !bitsEqual(net.FlattenGrads(nil), arena) {
		t.Fatal("FlattenGrads differs from the gradient arena")
	}
	off := 0
	for i, l := range net.layers {
		lo, hi := net.GradRange(i)
		if lo != off || hi != off+len(l.GradW.Data)+len(l.GradB.Data) {
			t.Fatalf("layer %d: GradRange [%d, %d), want [%d, %d)", i, lo, hi, off, off+len(l.GradW.Data)+len(l.GradB.Data))
		}
		if &l.GradW.Data[0] != &arena[lo] || &l.GradB.Data[0] != &arena[lo+len(l.GradW.Data)] {
			t.Fatalf("layer %d: gradients are not views at their GradRange", i)
		}
		off = hi
	}
}

// TestLoadersExactAndAtomic: Replica.Install and LoadGrads take a vector of
// exactly the right length; a short or a long one is an error that leaves
// every bit of the network, optimizer and gradients as it was.
func TestLoadersExactAndAtomic(t *testing.T) {
	r, err := NewReplica(rand.New(rand.NewSource(6)), []int{4, 6, 3}, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	trainSteps(t, r.Net, r.Opt, 2)
	n := r.Net.NumParams()
	snapshot := func() []float64 {
		return r.Net.FlattenGrads(append([]float64(nil), r.State()...))
	}
	loaders := []struct {
		name string
		n    int
		load func([]float64) error
		read func() []float64
	}{
		{"Install", 2 * n, r.Install, r.State},
		{"LoadGrads", n, r.Net.LoadGrads, func() []float64 { return r.Net.FlattenGrads(nil) }},
	}
	for _, l := range loaders {
		n := l.n
		for _, length := range []int{0, 3, n - 1, n + 1, 2 * n} {
			vec := make([]float64, length)
			for i := range vec {
				vec[i] = 7
			}
			before := snapshot()
			if err := l.load(vec); err == nil {
				t.Fatalf("%s accepted %d values for %d", l.name, length, n)
			}
			if !bitsEqual(snapshot(), before) {
				t.Fatalf("%s rejected %d values but changed the replica", l.name, length)
			}
		}
		vec := make([]float64, n)
		for i := range vec {
			vec[i] = float64(i) + 0.5
		}
		if err := l.load(vec); err != nil {
			t.Fatalf("%s of exactly %d values: %v", l.name, n, err)
		}
		if !bitsEqual(l.read(), vec) {
			t.Fatalf("%s did not load the vector", l.name)
		}
	}
}
