package ddp

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/elan-sys/elan/internal/collective"
	"github.com/elan-sys/elan/internal/nn"
	"github.com/elan-sys/elan/internal/tensor"
)

// unfusedRank is the training step as it ran before gradients were one
// vector, kept as the oracle for the step that replaced it: per-layer
// gradient matrices cleared eagerly, the weight-gradient kernel into scratch
// followed by Axpy, a flatten into a vector of the reducer's own, a mean
// all-reduce per bucket after the whole backward pass, a load back into the
// matrices, and an optimizer of three passes (Scale and two Axpy). It is
// written on the tensor kernels alone; nothing of nn's Backward, ZeroGrads or
// SGD.Step runs in it.
type unfusedRank struct {
	w, b, gradW, gradB, velW, velB []*tensor.Matrix
	flat                           []float64
	lr, mu                         float64
}

// newUnfusedRank copies its parameters from net, so oracle and runtime start
// from the same bits.
func newUnfusedRank(net *nn.MLP, lr, mu float64) *unfusedRank {
	u := &unfusedRank{flat: make([]float64, net.NumParams()), lr: lr, mu: mu}
	ps := net.Params()
	for i := 0; i < len(ps); i += 2 {
		w, b := ps[i], ps[i+1]
		u.w, u.b = append(u.w, w.Clone()), append(u.b, b.Clone())
		u.gradW, u.gradB = append(u.gradW, tensor.MustNew(w.Rows, w.Cols)), append(u.gradB, tensor.MustNew(1, w.Cols))
		u.velW, u.velB = append(u.velW, tensor.MustNew(w.Rows, w.Cols)), append(u.velB, tensor.MustNew(1, w.Cols))
	}
	return u
}

// step runs one iteration on (x, labels), reducing over g bucket by bucket
// in the plan's order.
func (u *unfusedRank) step(g *collective.Group, rank int, plan []bucket, x *tensor.Matrix, labels []int) error {
	nl := len(u.w)
	for i := 0; i < nl; i++ {
		u.gradW[i].Zero()
		u.gradB[i].Zero()
	}
	inputs, masks := make([]*tensor.Matrix, nl), make([]*tensor.Matrix, nl)
	h := x
	for i := 0; i < nl; i++ {
		inputs[i] = h.Clone()
		out := tensor.MustNew(h.Rows, u.w[i].Cols)
		if err := tensor.MatMulInto(out, inputs[i], u.w[i]); err != nil {
			return err
		}
		if err := out.AddRowVector(u.b[i]); err != nil {
			return err
		}
		if i < nl-1 {
			masks[i] = tensor.MustNew(out.Rows, out.Cols)
			if err := out.ReLUInto(masks[i]); err != nil {
				return err
			}
		}
		h = out
	}
	_, grad, err := nn.SoftmaxCrossEntropy(h, labels)
	if err != nil {
		return err
	}
	for i := nl - 1; i >= 0; i-- {
		gw, gb := tensor.MustNew(u.w[i].Rows, u.w[i].Cols), tensor.MustNew(1, u.w[i].Cols)
		gradIn := tensor.MustNew(grad.Rows, u.w[i].Rows)
		for _, err := range []error{
			tensor.MatMulATInto(gw, inputs[i], grad),
			u.gradW[i].Axpy(1, gw),
			grad.SumRowsInto(gb),
			u.gradB[i].Axpy(1, gb),
			tensor.MatMulBTInto(gradIn, grad, u.w[i]),
		} {
			if err != nil {
				return err
			}
		}
		grad = gradIn
		if i > 0 {
			if err := grad.Hadamard(masks[i-1]); err != nil {
				return err
			}
		}
	}
	u.flat = u.grads(u.flat[:0])
	for _, bk := range plan {
		if err := g.AllReduceMean(rank, u.flat[bk.lo:bk.hi]); err != nil {
			return err
		}
	}
	off := 0
	for i := 0; i < nl; i++ {
		off += copy(u.gradW[i].Data, u.flat[off:])
		off += copy(u.gradB[i].Data, u.flat[off:])
	}
	for i := 0; i < nl; i++ {
		for _, pvg := range [][3]*tensor.Matrix{{u.w[i], u.velW[i], u.gradW[i]}, {u.b[i], u.velB[i], u.gradB[i]}} {
			p, v, gr := pvg[0], pvg[1], pvg[2]
			v.Scale(u.mu)
			if err := v.Axpy(1, gr); err != nil {
				return err
			}
			if err := p.Axpy(-u.lr, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// params, velocity and grads flatten layer by layer, W before B.
func (u *unfusedRank) params(dst []float64) []float64   { return interleave(dst, u.w, u.b) }
func (u *unfusedRank) velocity(dst []float64) []float64 { return interleave(dst, u.velW, u.velB) }
func (u *unfusedRank) grads(dst []float64) []float64    { return interleave(dst, u.gradW, u.gradB) }

func interleave(dst []float64, ws, bs []*tensor.Matrix) []float64 {
	for i := range ws {
		dst = tensor.FlattenTo(dst, ws[i], bs[i])
	}
	return dst
}

// TestStepMatchesUnfusedReference: K steps of the step the runtime runs —
// ZeroGrads as a mark, backward writing the gradient arena in place, buckets
// all-reduced and averaged in place while backward is still writing the
// layers below, one fused optimizer pass — end on the parameters, velocity
// and gradients, bit for bit, that the old sequence (unfusedRank) ends on
// from the same seed, at each of the benchmark's shape families: 3 and 60
// samples a rank, one bucket and three, a flat group of 2 and a group placed
// 2x4, momentum 0 and 0.9.
func TestStepMatchesUnfusedReference(t *testing.T) {
	const steps = 4
	sizes := []int{12, 24, 20, 24, 5} // three buckets at 500 elements: layers 3+2, 1, 0
	for _, perRank := range []int{3, 60} {
		for _, bucketElems := range []int{0, 500} {
			for _, topo := range []collective.Topology{collective.Flat(2), clustered(t, 4, 4)} {
				for _, mu := range []float64{0, 0.9} {
					name := fmt.Sprintf("batch%d/bucket%d/ranks%d/mu%v", perRank, bucketElems, topo.Ranks(), mu)
					t.Run(name, func(t *testing.T) {
						stepBothWays(t, sizes, perRank, bucketElems, topo, mu, steps)
					})
				}
			}
		}
	}
}

func stepBothWays(t *testing.T, sizes []int, perRank, bucketElems int, topo collective.Topology, mu float64, steps int) {
	const lr = 0.05
	n := topo.Ranks()
	groups := make([]*collective.Group, 2) // the runtime's and the oracle's
	for i := range groups {
		g, err := collective.NewGroupWithTopology(topo)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		groups[i] = g
	}
	type side struct{ params, velocity, grads []float64 }
	got, want := make([]side, n), make([]side, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = func() error {
				rep, err := nn.NewReplica(rand.New(rand.NewSource(7)), sizes, lr, mu)
				if err != nil {
					return err
				}
				red := New(rep.Net, Config{BucketElems: bucketElems})
				defer red.Close()
				if wantBuckets := map[int]int{0: 1, 500: 3}[bucketElems]; red.NumBuckets() != wantBuckets {
					return fmt.Errorf("%d buckets, want %d", red.NumBuckets(), wantBuckets)
				}
				oracle := newUnfusedRank(rep.Net, lr, mu)
				rng := rand.New(rand.NewSource(100 + int64(r)))
				for s := 0; s < steps; s++ {
					x := tensor.MustNew(perRank, sizes[0])
					x.Randn(rng, 1)
					labels := make([]int, perRank)
					for i := range labels {
						labels[i] = rng.Intn(sizes[len(sizes)-1])
					}
					rep.Net.ZeroGrads()
					logits, err := rep.Net.Forward(x)
					if err != nil {
						return err
					}
					_, grad, err := rep.Net.SoftmaxLoss(logits, labels)
					if err != nil {
						return err
					}
					if err := red.BackwardAllReduce(groups[0], r, grad); err != nil {
						return err
					}
					if err := rep.Opt.Step(rep.Net.Params(), rep.Net.Grads()); err != nil {
						return err
					}
					if err := oracle.step(groups[1], r, red.buckets, x, labels); err != nil {
						return err
					}
				}
				got[r] = side{rep.Net.FlattenParams(nil), rep.Opt.FlattenState(nil), rep.Net.FlattenGrads(nil)}
				want[r] = side{oracle.params(nil), oracle.velocity(nil), oracle.grads(nil)}
				return nil
			}()
			if errs[r] != nil { // unblock the peers waiting in a collective
				groups[0].Close()
				groups[1].Close()
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 0; r < n; r++ {
		expectBits(t, "parameters", r, got[r].params, want[r].params)
		expectBits(t, "velocity", r, got[r].velocity, want[r].velocity)
		expectBits(t, "gradients", r, got[r].grads, want[r].grads)
		expectBits(t, "replicas agree", r, got[r].params, got[0].params)
	}
}
