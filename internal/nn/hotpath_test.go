package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/elan-sys/elan/internal/data"
	"github.com/elan-sys/elan/internal/racecheck"
	"github.com/elan-sys/elan/internal/tensor"
)

func randBatch(rng *rand.Rand, rows, features, classes int) (*tensor.Matrix, []int) {
	x := tensor.MustNew(rows, features)
	x.Randn(rng, 1)
	y := make([]int, rows)
	for i := range y {
		y[i] = rng.Intn(classes)
	}
	return x, y
}

func matsBitsEqual(t *testing.T, name string, a, b []*tensor.Matrix) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d matrices", name, len(a), len(b))
	}
	for i := range a {
		if a[i].Rows != b[i].Rows || a[i].Cols != b[i].Cols {
			t.Fatalf("%s[%d]: shape %dx%d vs %dx%d", name, i, a[i].Rows, a[i].Cols, b[i].Rows, b[i].Cols)
		}
		for j := range a[i].Data {
			if math.Float64bits(a[i].Data[j]) != math.Float64bits(b[i].Data[j]) {
				t.Fatalf("%s[%d] element %d: %v vs %v", name, i, j, a[i].Data[j], b[i].Data[j])
			}
		}
	}
}

// TestForwardCopiesInput is the regression test for the input-aliasing
// hazard: Linear.Forward must keep its own copy of the batch, so a caller
// overwriting the batch buffer between forward and backward (exactly what
// the workers' reused batch workspaces do) cannot corrupt the gradients.
func TestForwardCopiesInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := randBatch(rng, 8, 4, 3)

	clean := newNet(t, 4, 16, 3)
	out, err := clean.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	_, grad, err := clean.SoftmaxLoss(out, y)
	if err != nil {
		t.Fatal(err)
	}
	clean.ZeroGrads()
	if err := clean.Backward(grad.Clone()); err != nil {
		t.Fatal(err)
	}

	mutated := newNet(t, 4, 16, 3)
	xm := x.Clone()
	out2, err := mutated.Forward(xm)
	if err != nil {
		t.Fatal(err)
	}
	_, grad2, err := mutated.SoftmaxLoss(out2, y)
	if err != nil {
		t.Fatal(err)
	}
	g2 := grad2.Clone()
	for i := range xm.Data { // caller scribbles over its batch buffer
		xm.Data[i] = math.NaN()
	}
	mutated.ZeroGrads()
	if err := mutated.Backward(g2); err != nil {
		t.Fatal(err)
	}

	matsBitsEqual(t, "grads after input mutation", clean.Grads(), mutated.Grads())
}

// naiveStep runs one forward/backward with the allocating reference
// primitives directly on the network's weights, returning the loss and
// per-layer gradients in Params order.
func naiveStep(t *testing.T, m *MLP, x *tensor.Matrix, labels []int) (float64, []*tensor.Matrix) {
	t.Helper()
	h := x.Clone()
	var acts []*tensor.Matrix  // input to each layer
	var masks []*tensor.Matrix // ReLU mask after each hidden layer
	for i, l := range m.layers {
		acts = append(acts, h.Clone())
		out, err := tensor.MatMul(h, l.W)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.AddRowVector(l.B); err != nil {
			t.Fatal(err)
		}
		h = out
		if i < len(m.layers)-1 {
			masks = append(masks, h.ReLU())
		}
	}
	loss, grad, err := SoftmaxCrossEntropy(h, labels)
	if err != nil {
		t.Fatal(err)
	}
	grads := make([]*tensor.Matrix, 2*len(m.layers))
	g := grad
	for i := len(m.layers) - 1; i >= 0; i-- {
		l := m.layers[i]
		gw, err := tensor.MatMulAT(acts[i], g)
		if err != nil {
			t.Fatal(err)
		}
		grads[2*i] = gw
		grads[2*i+1] = g.SumRows()
		gin, err := tensor.MatMulBT(g, l.W)
		if err != nil {
			t.Fatal(err)
		}
		g = gin
		if i > 0 {
			if err := g.Hadamard(masks[i-1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return loss, grads
}

// TestWorkspacePathMatchesNaiveReference runs the workspace-backed hot path
// (Forward, SoftmaxLoss, Backward) against a from-scratch implementation
// built on the allocating primitives and demands bit-identical loss and
// gradients — including on the second pass, when every workspace is reused.
func TestWorkspacePathMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := newNet(t, 6, 32, 17, 4)
	for pass := 0; pass < 3; pass++ {
		x, y := randBatch(rng, 9, 6, 4)
		wantLoss, wantGrads := naiveStep(t, net, x, y)

		out, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		loss, grad, err := net.SoftmaxLoss(out, y)
		if err != nil {
			t.Fatal(err)
		}
		net.ZeroGrads()
		if err := net.Backward(grad); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(loss) != math.Float64bits(wantLoss) {
			t.Fatalf("pass %d: loss %v, naive %v", pass, loss, wantLoss)
		}
		matsBitsEqual(t, "gradients", net.Grads(), wantGrads)
	}
}

// TestWorkspacesPerBatchShape checks that switching batch sizes mid-training
// (exactly what elastic repartitioning does) keeps each shape's workspace
// intact and correct.
func TestWorkspacesPerBatchShape(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := newNet(t, 5, 24, 3)
	for _, rows := range []int{4, 16, 4, 1, 16} {
		x, y := randBatch(rng, rows, 5, 3)
		wantLoss, wantGrads := naiveStep(t, net, x, y)
		out, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		loss, grad, err := net.SoftmaxLoss(out, y)
		if err != nil {
			t.Fatal(err)
		}
		net.ZeroGrads()
		if err := net.Backward(grad); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(loss) != math.Float64bits(wantLoss) {
			t.Fatalf("rows=%d: loss %v, naive %v", rows, loss, wantLoss)
		}
		matsBitsEqual(t, "gradients", net.Grads(), wantGrads)
	}
}

// TestFirstLayerComputesNoInputGradient pins what the backward pass leaves
// out: the first layer's input gradient, the gradient with respect to the
// batch, which nothing reads. Its workspace never gets an input-gradient
// buffer; every deeper layer's does, since the layer below reads it. The
// exported Linear.Backward still returns the input gradient.
func TestFirstLayerComputesNoInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := newNet(t, 6, 16, 8, 3)
	const rows = 5
	for pass := 0; pass < 2; pass++ {
		x, y := randBatch(rng, rows, 6, 3)
		out, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		_, grad, err := net.SoftmaxLoss(out, y)
		if err != nil {
			t.Fatal(err)
		}
		net.ZeroGrads()
		if err := net.Backward(grad); err != nil {
			t.Fatal(err)
		}
		for i, l := range net.layers {
			w := l.ws[rows]
			if w == nil {
				t.Fatalf("pass %d: layer %d has no workspace for %d rows", pass, i, rows)
			}
			if got, want := w.gradIn != nil, i > 0; got != want {
				t.Fatalf("pass %d: layer %d has an input-gradient buffer: %v, want %v", pass, i, got, want)
			}
		}
	}

	gin, err := net.layers[0].Backward(tensor.MustNew(rows, 16))
	if err != nil {
		t.Fatal(err)
	}
	if gin == nil || gin.Rows != rows || gin.Cols != 6 {
		t.Fatalf("Linear.Backward returned input gradient %v, want %dx6", gin, rows)
	}
}

// TestTrainStepZeroAllocs is the tentpole proof for the nn layer: once the
// per-shape workspaces exist, a full forward / loss / backward / flatten /
// optimizer step allocates nothing. The accumulate case runs a second
// Backward without ZeroGrads, the form that computes into scratch and adds.
func TestTrainStepZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race CI job")
	}
	for name, backwards := range map[string]int{"direct": 1, "accumulate": 2} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			net := newNet(t, 8, 32, 32, 5)
			opt, err := NewSGD(net.Params(), 0.05, 0.9)
			if err != nil {
				t.Fatal(err)
			}
			x, y := randBatch(rng, 16, 8, 5)
			var flat []float64
			step := func() {
				out, err := net.Forward(x)
				if err != nil {
					t.Fatal(err)
				}
				_, grad, err := net.SoftmaxLoss(out, y)
				if err != nil {
					t.Fatal(err)
				}
				net.ZeroGrads()
				for i := 0; i < backwards; i++ {
					if err := net.Backward(grad); err != nil {
						t.Fatal(err)
					}
				}
				flat = net.FlattenGrads(flat[:0])
				if err := net.LoadGrads(flat); err != nil {
					t.Fatal(err)
				}
				if err := opt.Step(net.Params(), net.Grads()); err != nil {
					t.Fatal(err)
				}
			}
			step() // warm the workspaces, the accumulate scratch and the flat vector
			if avg := testing.AllocsPerRun(100, step); avg != 0 {
				t.Fatalf("%v allocs per training step, want 0", avg)
			}
		})
	}
}

// benchOp times op after one warm-up call, which builds the workspaces.
func benchOp(b *testing.B, op func() error) {
	if err := op(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLayerStep times one layer of the benchmark's steady_comm
// workload at its widest (3 samples a rank, 384 -> 384): a hidden layer's
// backward, input gradient included, onto gradients ZeroGrads marked zero,
// which writes the gradient arena directly (the step's form), beside the
// same onto gradients that hold something, which computes into scratch and
// adds; then the optimizer's one pass over the layer's 147,840 parameters.
// The layer is a one-layer replica's only layer, which MLP.Backward would
// run without its input gradient, so the rows call Linear.Backward.
func BenchmarkLayerStep(b *testing.B) {
	const rows, width = 3, 384
	rng := rand.New(rand.NewSource(1))
	layer, err := NewReplica(rng, []int{width, width}, 0.05, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	x, grad := tensor.MustNew(rows, width), tensor.MustNew(rows, width)
	x.Randn(rng, 1)
	grad.Randn(rng, 1)
	if _, err := layer.Net.Forward(x); err != nil {
		b.Fatal(err)
	}
	backward := func() error {
		_, err := layer.Net.layers[0].Backward(grad)
		return err
	}
	b.Run("backward_direct", func(b *testing.B) {
		benchOp(b, func() error {
			layer.Net.ZeroGrads()
			return backward()
		})
	})
	b.Run("backward_accumulate", func(b *testing.B) {
		benchOp(b, backward)
	})
	b.Run("sgd_step_fused", func(b *testing.B) {
		benchOp(b, func() error { return layer.Opt.Step(layer.Net.Params(), layer.Net.Grads()) })
	})
}

// BenchmarkTrainStep times the step a worker agent runs, on one rank:
// batch, ZeroGrads, forward, loss, backward over the gradient arena,
// optimizer. The gradient exchange between backward and the optimizer is
// collective's BenchmarkAllReduceBare.
func BenchmarkTrainStep(b *testing.B) {
	ds, err := data.GenGaussianMixture(1, 2048, 8, 3)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := NewReplica(rand.New(rand.NewSource(1)), []int{8, 32, 32, 3}, 0.05, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 32
	x, y := tensor.MustNew(batch, ds.Features), make([]int, batch)
	cursor := 0
	benchOp(b, func() error {
		if err := ds.BatchInto(x, y, cursor, cursor+batch); err != nil {
			return err
		}
		cursor = (cursor + batch) % ds.N()
		rep.Net.ZeroGrads()
		out, err := rep.Net.Forward(x)
		if err != nil {
			return err
		}
		_, grad, err := rep.Net.SoftmaxLoss(out, y)
		if err != nil {
			return err
		}
		if err := rep.Net.Backward(grad); err != nil {
			return err
		}
		return rep.Opt.Step(rep.Net.Params(), rep.Net.Grads())
	})
}
