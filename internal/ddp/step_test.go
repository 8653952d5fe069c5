package ddp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/collective"
	"github.com/elan-sys/elan/internal/nn"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/tensor"
)

// stepSizes is a network whose last two layers are 4 and 7 elements long:
// with BucketElems 1 each layer is a bucket and, on 8 ranks, those two
// buckets leave some ranks an empty chunk. BucketElems 64 makes two
// buckets, 0 one.
var stepSizes = []int{8, 12, 6, 1, 2}

const (
	stepLR, stepMu = 0.05, 0.9
	stepBatch      = 3
)

// stepReplica builds a rank's replica; every rank's starts from the same
// bits, as data-parallel replicas do.
func stepReplica(t testing.TB) *nn.Replica {
	t.Helper()
	rep, err := nn.NewReplica(rand.New(rand.NewSource(7)), stepSizes, stepLR, stepMu)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// stepBatchFor is rank's mini-batch at step s.
func stepBatchFor(rank, s int) (*tensor.Matrix, []int) {
	rng := rand.New(rand.NewSource(int64(1000*s + rank)))
	x := tensor.MustNew(stepBatch, stepSizes[0])
	x.Randn(rng, 1)
	labels := make([]int, stepBatch)
	for i := range labels {
		labels[i] = rng.Intn(stepSizes[len(stepSizes)-1])
	}
	return x, labels
}

// forwardLoss runs rep's forward pass and loss on rank's batch at step s
// and returns the loss gradient, with the elements of poison (index →
// bits) overwritten.
func forwardLoss(rep *nn.Replica, rank, s int, poison map[int]uint64) (*tensor.Matrix, error) {
	x, labels := stepBatchFor(rank, s)
	rep.Net.ZeroGrads()
	logits, err := rep.Net.Forward(x)
	if err != nil {
		return nil, err
	}
	_, grad, err := rep.Net.SoftmaxLoss(logits, labels)
	if err != nil {
		return nil, err
	}
	for i, bits := range poison {
		grad.Data[i%len(grad.Data)] = math.Float64frombits(bits)
	}
	return grad, nil
}

// stepCase is one configuration of the bitwise oracle.
type stepCase struct {
	ranks, bucketElems, steps int
	// poison[s][r] are loss-gradient elements overwritten on rank r at step
	// s, on both sides.
	poison map[int]map[int]map[int]uint64
}

// stepped is one rank's state after one step on either side, and the
// step's mean gradient on the reference side.
type stepped struct {
	state, grads []float64
}

// runStepCase steps every rank of c twice over: a replica through
// BackwardStep on one group, and a reference replica through
// BackwardAllReduce followed by SGD.Step on another. It returns each
// rank's snapshots after every step, runtime and reference, and the
// runtime's bucket plan.
func runStepCase(t testing.TB, c stepCase) (got, want [][]stepped, plan []bucket) {
	t.Helper()
	groups := make([]*collective.Group, 2)
	for i := range groups {
		g, err := collective.NewGroup(c.ranks)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		groups[i] = g
	}
	got, want = make([][]stepped, c.ranks), make([][]stepped, c.ranks)
	plans := make([][]bucket, c.ranks)
	errs := make([]error, c.ranks)
	var wg sync.WaitGroup
	for r := 0; r < c.ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = func() error {
				rep, ref := stepReplica(t), stepReplica(t)
				red, refRed := New(rep.Net, Config{BucketElems: c.bucketElems}), New(ref.Net, Config{BucketElems: c.bucketElems})
				defer red.Close()
				defer refRed.Close()
				plans[r] = red.buckets
				for s := 0; s < c.steps; s++ {
					grad, err := forwardLoss(rep, r, s, c.poison[s][r])
					if err != nil {
						return err
					}
					if err := red.BackwardStep(groups[0], r, grad, rep, telemetry.TraceContext{}); err != nil {
						return fmt.Errorf("step %d: %w", s, err)
					}
					if grad, err = forwardLoss(ref, r, s, c.poison[s][r]); err != nil {
						return err
					}
					if err := refRed.BackwardAllReduce(groups[1], r, grad); err != nil {
						return fmt.Errorf("reference step %d: %w", s, err)
					}
					if err := ref.Opt.Step(ref.Net.Params(), ref.Net.Grads()); err != nil {
						return err
					}
					got[r] = append(got[r], stepped{append([]float64(nil), rep.State()...), rep.Net.FlattenGrads(nil)})
					want[r] = append(want[r], stepped{append([]float64(nil), ref.State()...), ref.Net.FlattenGrads(nil)})
				}
				return nil
			}()
			if errs[r] != nil { // unblock the peers waiting in an exchange
				groups[0].Close()
				groups[1].Close()
			}
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("%d ranks, buckets of %d: rank %d: %v", c.ranks, c.bucketElems, r, err)
		}
	}
	return got, want, plans[0]
}

// checkStepCase holds every rank's whole state arena after every step to
// the reference's in every bit, and its gradient arena on the ranges it owns
// to the reference's mean.
func checkStepCase(t testing.TB, c stepCase) []bucket {
	t.Helper()
	got, want, plan := runStepCase(t, c)
	for r := range got {
		for s := range got[r] {
			label := fmt.Sprintf("%d ranks, buckets of %d, step %d", c.ranks, c.bucketElems, s)
			sameBits(t, label+" state", r, got[r][s].state, want[r][s].state)
			sameBits(t, label+" replicas agree", r, got[r][s].state, got[0][s].state)
			for _, bk := range plan {
				lo, hi := collective.Chunk(bk.hi-bk.lo, c.ranks, r)
				sameBits(t, label+" owned mean gradient", r, got[r][s].grads[bk.lo+lo:bk.lo+hi], want[r][s].grads[bk.lo+lo:bk.lo+hi])
			}
		}
	}
	return plan
}

// sameBits is expectBits for testing.TB and values that may be NaNs:
// payloads must match too.
func sameBits(t testing.TB, label string, rank int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s rank %d: length %d, want %d", label, rank, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s rank %d elem %d: %v (%#x), want %v (%#x)", label, rank, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestBackwardStepMatchesAllReduceThenStep: the step in which each chunk's
// owner updates its range and hands its peers parameters ends, on every
// rank and after every step, on the state arena — parameters and velocity,
// every Float64bits — that BackwardAllReduce followed by SGD.Step ends on:
// on 1, 2, 3 and 8 ranks, with one bucket, two, and four of which two leave
// some of 8 ranks an empty chunk, over four steps, the third of which puts
// NaNs of distinct payloads into two ranks' loss gradients.
func TestBackwardStepMatchesAllReduceThenStep(t *testing.T) {
	const steps = 4
	for _, n := range []int{1, 2, 3, 8} {
		for _, bucketElems := range []int{0, 64, 1} {
			t.Run(fmt.Sprintf("ranks%d/bucket%d", n, bucketElems), func(t *testing.T) {
				poison := map[int]map[int]map[int]uint64{2: {
					0:     {0: 0x7ff8000000000001, 4: 0xfff0000000000abc},
					n - 1: {1: 0x7ff0000000000123},
				}}
				plan := checkStepCase(t, stepCase{ranks: n, bucketElems: bucketElems, steps: steps, poison: poison})
				if want := map[int]int{0: 1, 64: 2, 1: 4}[bucketElems]; len(plan) != want {
					t.Fatalf("%d buckets, want %d", len(plan), want)
				}
				if bucketElems == 1 && n == 8 {
					short := 0
					for _, bk := range plan {
						if bk.hi-bk.lo < n {
							short++
						}
					}
					if short == 0 {
						t.Fatal("no bucket is shorter than the rank count")
					}
				}
			})
		}
	}
}

// FuzzBackwardStepBitwise is TestBackwardStepMatchesAllReduceThenStep over
// any rank count from 1 to 8, any bucket cap from 0 to 255, one to three
// steps, and any bits in one loss-gradient element of one rank at the last
// step.
func FuzzBackwardStepBitwise(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint16(0), uint64(0))
	f.Add(uint8(7), uint8(1), uint8(2), uint8(3), uint16(5), uint64(0x7ff8000000000001))
	f.Add(uint8(2), uint8(64), uint8(1), uint8(2), uint16(2), uint64(0xfff0000000000000))
	f.Add(uint8(1), uint8(1), uint8(2), uint8(1), uint16(1), math.Float64bits(-0.0))
	f.Add(uint8(4), uint8(200), uint8(2), uint8(0), uint16(3), math.Float64bits(1e308))
	f.Fuzz(func(t *testing.T, nRaw, bucketElems, stepsRaw, rankRaw uint8, at uint16, bits uint64) {
		n, steps := 1+int(nRaw%8), 1+int(stepsRaw%3)
		poison := map[int]map[int]map[int]uint64{steps - 1: {int(rankRaw) % n: {int(at): bits}}}
		checkStepCase(t, stepCase{ranks: n, bucketElems: int(bucketElems), steps: steps, poison: poison})
	})
}

// TestEveryRankReadsItsStateAtOnce: each rank checks its whole state arena
// against the reference on its own goroutine the moment BackwardStep
// returns, and reads and rewrites all of it at once, ten steps running. A
// rank must never see a peer still writing the ranges it owns: under -race,
// a commit without its exit barrier fails here.
func TestEveryRankReadsItsStateAtOnce(t *testing.T) {
	const steps = 10
	for _, n := range []int{2, 3, 8} {
		for _, bucketElems := range []int{0, 1} {
			c := stepCase{ranks: n, bucketElems: bucketElems, steps: steps}
			_, want, _ := runStepCase(t, c)
			g, err := collective.NewGroup(n)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for r := 0; r < n; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rep := stepReplica(t)
					red := New(rep.Net, Config{BucketElems: bucketElems})
					defer red.Close()
					buf := make([]float64, len(rep.State()))
					for s := 0; s < steps; s++ {
						grad, err := forwardLoss(rep, r, s, nil)
						if err == nil {
							err = red.BackwardStep(g, r, grad, rep, telemetry.TraceContext{})
						}
						if err != nil {
							t.Errorf("%d ranks, buckets of %d, step %d, rank %d: %v", n, bucketElems, s, r, err)
							g.Close()
							return
						}
						st := rep.State()
						for i, v := range st {
							if math.Float64bits(v) != math.Float64bits(want[r][s].state[i]) {
								t.Errorf("%d ranks, buckets of %d, step %d, rank %d elem %d: %v, want %v", n, bucketElems, s, r, i, v, want[r][s].state[i])
								g.Close()
								return
							}
						}
						copy(buf, st)
						copy(st, buf)
					}
				}()
			}
			wg.Wait()
			g.Close()
		}
	}
}

// stateOf snapshots every rank's state arena.
func stateOf(reps []*nn.Replica) [][]float64 {
	out := make([][]float64, len(reps))
	for r, rep := range reps {
		out[r] = append([]float64(nil), rep.State()...)
	}
	return out
}

// TestBackwardStepBackwardErrorCommitsNothing: a shape error in one rank's
// backward fails the step on every rank — that rank with its own error,
// the others with collective.ErrAborted — and leaves every state arena as
// it was, bit for bit, whichever rank fails and however the gradient is
// bucketed. The group stays usable.
func TestBackwardStepBackwardErrorCommitsNothing(t *testing.T) {
	const n = 3
	for _, bucketElems := range []int{0, 64, 1} {
		for bad := 0; bad < n; bad++ {
			reps, reds := make([]*nn.Replica, n), make([]*Reducer, n)
			for r := range reps {
				reps[r] = stepReplica(t)
				reds[r] = New(reps[r].Net, Config{BucketElems: bucketElems})
				defer reds[r].Close()
			}
			g, err := collective.NewGroup(n)
			if err != nil {
				t.Fatal(err)
			}
			// One good step first, so the velocity is not all zeros.
			if err := stepAll(g, reps, reds, 0, -1); err != nil {
				t.Fatal(err)
			}
			before := stateOf(reps)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for r := 0; r < n; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[r] = stepOne(g, reps[r], reds[r], r, 1, r == bad)
				}()
			}
			wg.Wait()
			for r, err := range errs {
				switch {
				case err == nil:
					t.Fatalf("buckets of %d, bad rank %d: rank %d stepped", bucketElems, bad, r)
				case r != bad && !errors.Is(err, collective.ErrAborted):
					t.Fatalf("buckets of %d, bad rank %d: rank %d returned %v, want ErrAborted", bucketElems, bad, r, err)
				case r == bad && errors.Is(err, collective.ErrAborted):
					t.Fatalf("buckets of %d: the bad rank returned ErrAborted, want its own error", bucketElems)
				}
			}
			after := stateOf(reps)
			for r := range after {
				sameBits(t, fmt.Sprintf("buckets of %d, bad rank %d", bucketElems, bad), r, after[r], before[r])
			}
			if err := stepAll(g, reps, reds, 2, -1); err != nil {
				t.Fatalf("buckets of %d, bad rank %d: the next step failed: %v", bucketElems, bad, err)
			}
			g.Close()
		}
	}
}

// stepOne runs rank's BackwardStep at step s; with shapeErr the loss
// gradient has one row too many, which backward rejects.
func stepOne(g *collective.Group, rep *nn.Replica, red *Reducer, rank, s int, shapeErr bool) error {
	grad, err := forwardLoss(rep, rank, s, nil)
	if err != nil {
		return err
	}
	if shapeErr {
		grad = tensor.MustNew(grad.Rows+1, grad.Cols)
	}
	return red.BackwardStep(g, rank, grad, rep, telemetry.TraceContext{})
}

// stepAll steps every rank at step s, rank bad with a shape error (-1 for
// none), and returns the first error.
func stepAll(g *collective.Group, reps []*nn.Replica, reds []*Reducer, s, bad int) error {
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for r := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = stepOne(g, reps[r], reds[r], r, s, r == bad)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// TestBackwardStepCloseBeforeCommit: a Close while a rank is missing from
// the step leaves every state arena as it was, and the ranks that came
// return ErrClosed, whether they wait at the commit itself or at an
// earlier bucket's reduce-scatter.
func TestBackwardStepCloseBeforeCommit(t *testing.T) {
	const n = 3
	for _, bucketElems := range []int{0, 64} {
		reps, reds := make([]*nn.Replica, n), make([]*Reducer, n)
		for r := range reps {
			reps[r] = stepReplica(t)
			reds[r] = New(reps[r].Net, Config{BucketElems: bucketElems})
			defer reds[r].Close()
		}
		g, err := collective.NewGroup(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := stepAll(g, reps, reds, 0, -1); err != nil {
			t.Fatal(err)
		}
		before := stateOf(reps)
		errs := make(chan error, n-1)
		for r := 0; r < n-1; r++ {
			go func() { errs <- stepOne(g, reps[r], reds[r], r, 1, false) }()
		}
		time.Sleep(20 * time.Millisecond) // let the ranks reach an exchange; a later arrival fails at entry all the same
		g.Close()
		for r := 0; r < n-1; r++ {
			select {
			case err := <-errs:
				if !errors.Is(err, collective.ErrClosed) {
					t.Fatalf("buckets of %d: a rank returned %v, want ErrClosed", bucketElems, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("buckets of %d: ranks hang after Close", bucketElems)
			}
		}
		after := stateOf(reps)
		for r := range after {
			sameBits(t, fmt.Sprintf("buckets of %d, closed", bucketElems), r, after[r], before[r])
		}
	}
}

// TestBackwardStepRefusesForeignReplica: a replica whose network is not the
// reducer's is refused before anything runs.
func TestBackwardStepRefusesForeignReplica(t *testing.T) {
	rep, other := stepReplica(t), stepReplica(t)
	red := New(rep.Net, Config{})
	defer red.Close()
	solo, err := collective.NewGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	grad, err := forwardLoss(other, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), other.State()...)
	if err := red.BackwardStep(solo, 0, grad, other, telemetry.TraceContext{}); err == nil {
		t.Fatal("a step on another network's replica succeeded")
	}
	sameBits(t, "foreign", 0, other.State(), before)
}
