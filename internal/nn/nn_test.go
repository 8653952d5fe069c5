package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/elan-sys/elan/internal/tensor"
)

func newNet(t *testing.T, sizes ...int) *MLP {
	t.Helper()
	m, err := NewMLP(rand.New(rand.NewSource(42)), sizes)
	if err != nil {
		t.Fatalf("NewMLP: %v", err)
	}
	return m
}

func TestNewMLPValidation(t *testing.T) {
	if _, err := NewMLP(rand.New(rand.NewSource(1)), []int{4}); err == nil {
		t.Fatal("single-size MLP accepted")
	}
	if _, err := NewMLP(rand.New(rand.NewSource(1)), []int{4, 0, 2}); err == nil {
		t.Fatal("zero-width layer accepted")
	}
}

func TestForwardShapes(t *testing.T) {
	m := newNet(t, 3, 8, 4)
	x := tensor.MustNew(5, 3)
	out, err := m.Forward(x)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if out.Rows != 5 || out.Cols != 4 {
		t.Fatalf("output shape %dx%d, want 5x4", out.Rows, out.Cols)
	}
}

func TestBackwardBeforeForward(t *testing.T) {
	l, err := NewLinear(rand.New(rand.NewSource(1)), 2, 2)
	if err != nil {
		t.Fatalf("NewLinear: %v", err)
	}
	if _, err := l.Backward(tensor.MustNew(1, 2)); err == nil {
		t.Fatal("backward before forward accepted")
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln(4).
	logits := tensor.MustNew(2, 4)
	loss, grad, err := SoftmaxCrossEntropy(logits, []int{0, 3})
	if err != nil {
		t.Fatalf("SoftmaxCrossEntropy: %v", err)
	}
	if math.Abs(loss-math.Log(4)) > 1e-9 {
		t.Fatalf("loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	// Gradient rows sum to zero (softmax - onehot).
	for i := 0; i < 2; i++ {
		var sum float64
		for j := 0; j < 4; j++ {
			sum += grad.At(i, j)
		}
		if math.Abs(sum) > 1e-9 {
			t.Fatalf("grad row %d sums to %v", i, sum)
		}
	}
}

func TestSoftmaxCrossEntropyValidation(t *testing.T) {
	logits := tensor.MustNew(2, 3)
	if _, _, err := SoftmaxCrossEntropy(logits, []int{0}); err == nil {
		t.Fatal("label count mismatch accepted")
	}
	if _, _, err := SoftmaxCrossEntropy(logits, []int{0, 5}); err == nil {
		t.Fatal("out-of-range label accepted")
	}
}

func TestGradientCheck(t *testing.T) {
	// Numerical gradient check of the full network loss.
	rng := rand.New(rand.NewSource(11))
	m := newNet(t, 3, 5, 3)
	x := tensor.MustNew(4, 3)
	x.Randn(rng, 1)
	labels := []int{0, 1, 2, 1}

	lossOf := func() float64 {
		out, err := m.Forward(x)
		if err != nil {
			t.Fatalf("forward: %v", err)
		}
		loss, _, err := SoftmaxCrossEntropy(out, labels)
		if err != nil {
			t.Fatalf("loss: %v", err)
		}
		return loss
	}

	// Analytic gradients.
	m.ZeroGrads()
	out, err := m.Forward(x)
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	_, grad, err := SoftmaxCrossEntropy(out, labels)
	if err != nil {
		t.Fatalf("loss: %v", err)
	}
	if err := m.Backward(grad); err != nil {
		t.Fatalf("backward: %v", err)
	}
	analytic := m.FlattenGrads(nil)

	// Numerical gradients on a sample of parameters.
	params := m.Params()
	flatIdx := 0
	const eps = 1e-6
	checked := 0
	for _, p := range params {
		for i := range p.Data {
			if (flatIdx+i)%7 == 0 { // sample every 7th parameter
				orig := p.Data[i]
				p.Data[i] = orig + eps
				up := lossOf()
				p.Data[i] = orig - eps
				down := lossOf()
				p.Data[i] = orig
				num := (up - down) / (2 * eps)
				ana := analytic[flatIdx+i]
				if math.Abs(num-ana) > 1e-4*(1+math.Abs(num)) {
					t.Fatalf("gradient mismatch at %d: numeric %v analytic %v", flatIdx+i, num, ana)
				}
				checked++
			}
		}
		flatIdx += len(p.Data)
	}
	if checked < 5 {
		t.Fatalf("only %d gradients checked", checked)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := newNet(t, 2, 16, 2)
	opt, err := NewSGD(m.Params(), 0.1, 0.9)
	if err != nil {
		t.Fatalf("NewSGD: %v", err)
	}
	// Linearly separable toy data.
	n := 64
	x := tensor.MustNew(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		labels[i] = cls
		x.Set(i, 0, float64(cls*2-1)+rng.NormFloat64()*0.3)
		x.Set(i, 1, rng.NormFloat64()*0.3)
	}
	var first, last float64
	for step := 0; step < 60; step++ {
		m.ZeroGrads()
		out, err := m.Forward(x)
		if err != nil {
			t.Fatalf("forward: %v", err)
		}
		loss, grad, err := SoftmaxCrossEntropy(out, labels)
		if err != nil {
			t.Fatalf("loss: %v", err)
		}
		if step == 0 {
			first = loss
		}
		last = loss
		if err := m.Backward(grad); err != nil {
			t.Fatalf("backward: %v", err)
		}
		if err := opt.Step(m.Params(), m.Grads()); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	if last > first/4 {
		t.Fatalf("loss did not drop enough: %v -> %v", first, last)
	}
	out, _ := m.Forward(x)
	acc, err := Accuracy(out, labels)
	if err != nil {
		t.Fatalf("Accuracy: %v", err)
	}
	if acc < 0.95 {
		t.Fatalf("accuracy = %v, want >= 0.95", acc)
	}
}

func TestAccuracyValidation(t *testing.T) {
	if _, err := Accuracy(tensor.MustNew(2, 2), []int{0}); err == nil {
		t.Fatal("label count mismatch accepted")
	}
}

// TestParamsRoundTrip: FlattenParams exports every parameter in the arena
// order, so a replica that installs [params | velocity] from them holds the
// same parameters.
func TestParamsRoundTrip(t *testing.T) {
	sizes := []int{3, 4, 2}
	src, err := NewReplica(rand.New(rand.NewSource(1)), sizes, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	flat := src.Net.FlattenParams(nil)
	if len(flat) != src.Net.NumParams() {
		t.Fatalf("flat len %d != NumParams %d", len(flat), src.Net.NumParams())
	}
	flat[0] = 123.456
	dst, err := NewReplica(nil, sizes, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Install(src.Opt.FlattenState(flat)); err != nil {
		t.Fatalf("Install: %v", err)
	}
	if got := dst.Net.FlattenParams(nil); !bitsEqual(got, flat) {
		t.Fatal("parameters did not round-trip")
	}
	if src.Net.FlattenParams(nil)[0] == 123.456 {
		t.Fatal("FlattenParams returned the live parameters, not a copy")
	}
}

func TestGradsRoundTrip(t *testing.T) {
	m := newNet(t, 2, 3, 2)
	x := tensor.MustNew(4, 2)
	out, _ := m.Forward(x)
	_, grad, _ := SoftmaxCrossEntropy(out, []int{0, 1, 0, 1})
	if err := m.Backward(grad); err != nil {
		t.Fatalf("backward: %v", err)
	}
	flat := m.FlattenGrads(nil)
	m.ZeroGrads()
	if err := m.LoadGrads(flat); err != nil {
		t.Fatalf("LoadGrads: %v", err)
	}
	f2 := m.FlattenGrads(nil)
	for i := range flat {
		if flat[i] != f2[i] {
			t.Fatalf("grads round trip mismatch at %d", i)
		}
	}
}

func TestSGDValidation(t *testing.T) {
	m := newNet(t, 2, 2)
	if _, err := NewSGD(m.Params(), 0, 0.9); err == nil {
		t.Fatal("zero LR accepted")
	}
	if _, err := NewSGD(m.Params(), 0.1, 1.0); err == nil {
		t.Fatal("momentum 1.0 accepted")
	}
	opt, err := NewSGD(m.Params(), 0.1, 0.9)
	if err != nil {
		t.Fatalf("NewSGD: %v", err)
	}
	if err := opt.Step(m.Params()[:1], m.Grads()); err == nil {
		t.Fatal("mismatched Step accepted")
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	// One parameter, constant gradient 1: with momentum 0.5 and lr 1,
	// updates are 1, 1.5, 1.75, ...
	p := tensor.MustNew(1, 1)
	g := tensor.MustNew(1, 1)
	g.Data[0] = 1
	opt, err := NewSGD([]*tensor.Matrix{p}, 1, 0.5)
	if err != nil {
		t.Fatalf("NewSGD: %v", err)
	}
	want := []float64{-1, -2.5, -4.25}
	for i, w := range want {
		if err := opt.Step([]*tensor.Matrix{p}, []*tensor.Matrix{g}); err != nil {
			t.Fatalf("Step: %v", err)
		}
		if math.Abs(p.Data[0]-w) > 1e-12 {
			t.Fatalf("after step %d: p = %v, want %v", i+1, p.Data[0], w)
		}
	}
}

// TestSGDStateRoundTrip: after a step the velocity is nonzero, FlattenState
// exports it in the arena order, and a replica that installs it holds it.
func TestSGDStateRoundTrip(t *testing.T) {
	sizes := []int{2, 3, 2}
	src, err := NewReplica(rand.New(rand.NewSource(2)), sizes, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	trainSteps(t, src.Net, src.Opt, 1)
	state := src.Opt.FlattenState(nil)
	if len(state) != src.Opt.StateElements() {
		t.Fatalf("state len %d != %d", len(state), src.Opt.StateElements())
	}
	nonzero := false
	for _, v := range state {
		nonzero = nonzero || v != 0
	}
	if !nonzero {
		t.Fatal("velocity all zero after a step")
	}
	dst, err := NewReplica(nil, sizes, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Install(src.Opt.FlattenState(src.Net.FlattenParams(nil))); err != nil {
		t.Fatalf("Install: %v", err)
	}
	if got := dst.Opt.FlattenState(nil); !bitsEqual(got, state) {
		t.Fatal("optimizer state did not round-trip")
	}
}

func TestGradientLinearityProperty(t *testing.T) {
	// Property: gradients accumulated over two backward passes equal the
	// sum of gradients of each pass (linearity of accumulation).
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := NewMLP(rng, []int{2, 4, 2})
		if err != nil {
			return false
		}
		x1 := tensor.MustNew(3, 2)
		x2 := tensor.MustNew(3, 2)
		x1.Randn(rng, 1)
		x2.Randn(rng, 1)
		labels := []int{0, 1, 0}

		runOnce := func(x *tensor.Matrix) []float64 {
			m.ZeroGrads()
			out, err := m.Forward(x)
			if err != nil {
				return nil
			}
			_, g, err := SoftmaxCrossEntropy(out, labels)
			if err != nil {
				return nil
			}
			if err := m.Backward(g); err != nil {
				return nil
			}
			return m.FlattenGrads(nil)
		}
		g1 := runOnce(x1)
		g2 := runOnce(x2)
		// Accumulate both.
		m.ZeroGrads()
		for _, x := range []*tensor.Matrix{x1, x2} {
			out, err := m.Forward(x)
			if err != nil {
				return false
			}
			_, g, err := SoftmaxCrossEntropy(out, labels)
			if err != nil {
				return false
			}
			if err := m.Backward(g); err != nil {
				return false
			}
		}
		acc := m.FlattenGrads(nil)
		for i := range acc {
			if math.Abs(acc[i]-(g1[i]+g2[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
