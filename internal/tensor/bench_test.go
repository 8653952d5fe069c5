package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// benchKernel times call at parallelism k.
func benchKernel(b *testing.B, k int, call func() error) {
	prev := SetParallelism(k)
	defer SetParallelism(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := call(); err != nil {
			b.Fatal(err)
		}
	}
}

// parallelRows is the pool size of the parallel rows: one helper per
// processor, and at least one, so a single processor still dispatches.
func parallelRows() int { return max(runtime.GOMAXPROCS(0), 2) }

// BenchmarkMatMulInto128 times a 128² product as the allocating naive
// MatMul the Into kernels are checked against, as MatMulInto serial, and as
// MatMulInto on the pool. On a 2-processor host the parallel row lands
// anywhere between the serial row and about 0.6 of it, run to run: waking
// the parked helper took 0.1 ms at the median, against a 0.35 ms kernel.
// The submitter never waits for the wake-up, so the row gains what the
// helper computed once awake and loses nothing when it is late.
func BenchmarkMatMulInto128(b *testing.B) { benchSquare(b, 128) }

// BenchmarkMatMulInto512 is BenchmarkMatMulInto128 at 512², where the
// helper's wake-up is a small share of the kernel.
func BenchmarkMatMulInto512(b *testing.B) { benchSquare(b, 512) }

func benchSquare(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	x, y, dst := MustNew(n, n), MustNew(n, n), MustNew(n, n)
	x.Randn(rng, 1)
	y.Randn(rng, 1)
	b.Run("naive", func(b *testing.B) {
		benchKernel(b, 1, func() error {
			_, err := MatMul(x, y)
			return err
		})
	})
	into := func() error { return MatMulInto(dst, x, y) }
	b.Run("serial", func(b *testing.B) { benchKernel(b, 1, into) })
	b.Run("parallel", func(b *testing.B) { benchKernel(b, parallelRows(), into) })
}

// BenchmarkWorkloadKernels times the three Into kernels at the layer shapes
// of the benchmark's steady_compute workload (60 samples a rank through an
// MLP 128-512-512-10): batch x in x out names the forward product
// MatMulInto(60 x out <- 60 x in, in x out), the weight gradient
// MatMulATInto(in x out <- 60 x in, 60 x out) and the input gradient
// MatMulBTInto(60 x in <- 60 x out, in x out). The relu variants zero the
// negative half of the a operand, as a hidden layer's activations and
// masked gradients are. 12x256x2048, dense a only, is the first layer of
// the elastic_churn workload (12 samples a rank, MLP 256-2048-10): its
// forward sweeps each kBlock tile of the weight matrix in column panels,
// and its MatMulBTInto row times the input gradient a network's backward
// does not compute for its first layer. 3x384x384 is a hidden layer of the
// steady_comm workload (3 samples a rank, MLP 256-384-384-256-10): the
// weight gradient's tiles of 3 terms run in one pass, and the input
// gradient's 3 rows run the packed few-row kernel. 12x32x64 dense and
// 12x64x10 relu are the churn_observed workload's layers (12 samples a
// rank, MLP 32-64-10). The ReLUInto rows are a hidden layer's activation
// at 60x512 and 12x64 on normal values, half of them negative in a random
// pattern; an op copies the pre-activation in first, as the forward
// product writes it. The relu and ReLUInto rows cycle through
// signOperands. Serial, so a row is the kernel's own speed; the two
// parallel rows are the pool's dispatch at a workload shape, where the
// helper's wake-up is a few percent of the region.
//
// Medians of five alternating runs of 30 iterations on a 2-vCPU Intel
// Xeon VM, in ms. The first pair is the Go loops → the packed AVX2 tiles.
// The second, measured side by side later on the same VM, is the packed
// tiles → the same with the one-pass tiles, the column panels and the
// few-row MatMulBTInto:
//
//	MatMulInto    60x512x512 dense      6.43 → 2.66     2.70 → 2.36
//	MatMulInto    60x512x512 parallel   6.64 → 1.56     1.55 → 1.42
//	MatMulInto    60x512x512 relu       4.50 → 1.69     1.81 → 1.76
//	MatMulInto    60x128x512 dense      1.58 → 0.63     0.65 → 0.68
//	MatMulInto    60x128x512 relu       0.86 → 0.40     0.44 → 0.44
//	MatMulInto    12x256x2048           2.97 → 1.70     1.52 → 1.15
//	MatMulInto    3x384x384             0.18 → 0.08    0.081 → 0.091
//	MatMulATInto  60x512x512 dense      7.07 → 2.59     2.78 → 2.44
//	MatMulATInto  60x512x512 relu       4.02 → 1.81     1.96 → 1.68
//	MatMulATInto  60x128x512 dense      1.81 → 0.63     0.67 → 0.52
//	MatMulATInto  60x128x512 relu       1.03 → 0.39     0.48 → 0.35
//	MatMulATInto  12x256x2048           2.80 → 1.35     1.33 → 0.91
//	MatMulATInto  3x384x384             0.46 → 0.28     0.37 → 0.054
//	MatMulBTInto  60x512x512 dense      7.04 → 2.69     2.89 → 2.74
//	MatMulBTInto  60x512x512 parallel   4.34 → 1.51     1.55 → 1.40
//	MatMulBTInto  60x512x512 relu       6.66 → 2.37     2.81 → 3.05
//	MatMulBTInto  60x128x512 dense      1.45 → 0.59     0.40 → 0.64
//	MatMulBTInto  60x128x512 relu       1.36 → 0.59     0.61 → 0.62
//	MatMulBTInto  12x256x2048           3.03 → 1.18     0.97 → 1.09
//	MatMulBTInto  3x384x384             0.22 → 0.23     0.21 → 0.074
//
// The host is noisy: single runs of one row differed by up to 2x, and in
// the second pair the medians of rows whose code did not change (the
// MatMulBTInto rows of 4-row blocks) moved by up to a third either way.
//
// The third pair, packed, is the gather and ReLUInto branching → selecting
// (DESIGN §9, "Selects, not branches"); MatMulBTInto has no gather. Medians
// of nine alternating runs of 300 ms on the same VM, in ms; the parent's
// quartile distance on the dense rows was 17-55 % of its median:
//
//	MatMulInto    60x512x512 dense      2.07 → 2.02
//	MatMulInto    60x512x512 parallel   1.19 → 1.31
//	MatMulInto    60x512x512 relu       1.40 → 1.19
//	MatMulInto    60x128x512 dense      0.53 → 0.52
//	MatMulInto    60x128x512 relu       0.35 → 0.34
//	MatMulInto    12x256x2048           0.97 → 0.96
//	MatMulInto    3x384x384            0.067 → 0.062
//	MatMulInto    12x32x64 dense      0.0047 → 0.0056
//	MatMulInto    12x64x10 relu       0.0094 → 0.0038
//	MatMulATInto  60x512x512 dense      2.15 → 2.13
//	MatMulATInto  60x512x512 relu       1.67 → 1.34
//	MatMulATInto  60x128x512 dense      0.57 → 0.54
//	MatMulATInto  60x128x512 relu       0.39 → 0.32
//	MatMulATInto  12x256x2048           0.81 → 0.78
//	MatMulATInto  3x384x384            0.056 → 0.060
//	MatMulATInto  12x32x64 dense      0.0043 → 0.0040
//	MatMulATInto  12x64x10 relu       0.0110 → 0.0052
//	ReLUInto      60x512                0.23 → 0.068
//	ReLUInto      12x64               0.0052 → 0.0017
func BenchmarkWorkloadKernels(b *testing.B) {
	kernels := []struct {
		name string
		into func(dst, a, b *Matrix) error
		dims func(batch, in, out int) (dst, a, b [2]int)
	}{
		{"MatMulInto", MatMulInto, func(n, in, out int) (_, _, _ [2]int) { return [2]int{n, out}, [2]int{n, in}, [2]int{in, out} }},
		{"MatMulATInto", MatMulATInto, func(n, in, out int) (_, _, _ [2]int) { return [2]int{in, out}, [2]int{n, in}, [2]int{n, out} }},
		{"MatMulBTInto", MatMulBTInto, func(n, in, out int) (_, _, _ [2]int) { return [2]int{n, in}, [2]int{n, out}, [2]int{in, out} }},
	}
	shapes := []struct {
		dims  [3]int
		fills []string
	}{
		{[3]int{60, 512, 512}, []string{"dense", "relu"}},
		{[3]int{60, 128, 512}, []string{"dense", "relu"}},
		{[3]int{12, 256, 2048}, []string{"dense"}},
		{[3]int{3, 384, 384}, []string{"dense"}},
		{[3]int{12, 32, 64}, []string{"dense"}},
		{[3]int{12, 64, 10}, []string{"relu"}},
	}
	for _, k := range kernels {
		for _, shape := range shapes {
			sh := shape.dims
			for _, fill := range shape.fills {
				dd, da, db := k.dims(sh[0], sh[1], sh[2])
				rng := rand.New(rand.NewSource(1))
				dst, y := MustNew(dd[0], dd[1]), MustNew(db[0], db[1])
				xs := []*Matrix{MustNew(da[0], da[1])}
				xs[0].Randn(rng, 1)
				if fill == "relu" {
					xs = signOperands(rng, da[0], da[1])
					for _, x := range xs {
						x.ReLU()
					}
				}
				y.Randn(rng, 1)
				op := 0
				call := func() error {
					op++
					return k.into(dst, xs[op%len(xs)], y)
				}
				name := fmt.Sprintf("%s/%dx%dx%d/%s", k.name, sh[0], sh[1], sh[2], fill)
				b.Run(name, func(b *testing.B) { benchKernel(b, 1, call) })
				if name == "MatMulInto/60x512x512/dense" || name == "MatMulBTInto/60x512x512/dense" {
					b.Run(name+"_parallel", func(b *testing.B) { benchKernel(b, parallelRows(), call) })
				}
			}
		}
	}
	for _, sh := range [][2]int{{60, 512}, {12, 64}} {
		pre := signOperands(rand.New(rand.NewSource(1)), sh[0], sh[1])
		h, mask := MustNew(sh[0], sh[1]), MustNew(sh[0], sh[1])
		op := 0
		call := func() error {
			op++
			copy(h.Data, pre[op%len(pre)].Data)
			return h.ReLUInto(mask)
		}
		b.Run(fmt.Sprintf("ReLUInto/%dx%d/random", sh[0], sh[1]), func(b *testing.B) { benchKernel(b, 1, call) })
	}
}

// signOperands returns rows x cols matrices of normal values, as many as
// hold 64 Ki elements between them and at least two, for a row whose kernel
// meets signs or zeros in a random pattern to cycle through. One repeated
// operand of a few thousand elements lets the branch predictor learn its
// pattern: a branchy ReLUInto at 12x64 read 1.2 µs over one operand, or
// eight, and 4.9 µs over sixty-four, against 1.5 µs selecting. A training
// step's activations differ from step to step.
func signOperands(rng *rand.Rand, rows, cols int) []*Matrix {
	ms := make([]*Matrix, max(2, (64<<10)/(rows*cols)))
	for i := range ms {
		ms[i] = MustNew(rows, cols)
		ms[i].Randn(rng, 1)
	}
	return ms
}

// BenchmarkMatMulIntoCallers times the first layer's forward of the
// benchmark's steady_comm workload (3 samples a rank, 256 -> 384) as its
// eight ranks issue it. One op is one call on each of eight goroutines at
// once, on the default pool, so as many callers as there are region slots
// fan out to the helpers and the others compute inline, none waiting for
// another.
func BenchmarkMatMulIntoCallers(b *testing.B) {
	round := startCallers(b, 8, 3, 256, 384)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// startCallers starts n goroutines, each owning a destination for
// MatMulInto of one shared m x k by k x cols operand pair. round makes every
// goroutine do one call and returns when all have; the goroutines exit at
// cleanup.
func startCallers(tb testing.TB, n, m, k, cols int) (round func()) {
	rng := rand.New(rand.NewSource(1))
	a, b := MustNew(m, k), MustNew(k, cols)
	a.Randn(rng, 1)
	b.Randn(rng, 1)
	start := make([]chan struct{}, n)
	errs := make([]error, n)
	var calls, exited sync.WaitGroup
	for c := range start {
		start[c] = make(chan struct{})
		dst := MustNew(m, cols)
		exited.Add(1)
		go func() {
			defer exited.Done()
			for range start[c] {
				errs[c] = MatMulInto(dst, a, b)
				calls.Done()
			}
		}()
	}
	tb.Cleanup(func() {
		for _, s := range start {
			close(s)
		}
		exited.Wait()
	})
	return func() {
		calls.Add(n)
		for _, s := range start {
			s <- struct{}{}
		}
		calls.Wait()
		for _, err := range errs {
			if err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// nanSink keeps BenchmarkOnePass's maybeNaN calls from being optimized away.
var nanSink bool

// BenchmarkOnePass times the two forms of one axpyTile on the packed path
// as a tile's non-zero count grows: 128 output rows of 512, each taking nz
// terms from distinct rows of a 128x512 b, as one pass (axpyNAVX2, which
// flags NaNs as it stores) and as streaming tiles of four, two and one
// (axpyStream) followed by the maybeNaN pass. Its rows set onePassTerms.
func BenchmarkOnePass(b *testing.B) {
	if !hostAVX2 {
		b.Skip("no AVX2 on this host")
	}
	const rows, n = 128, 512
	rng := rand.New(rand.NewSource(1))
	y, dst := MustNew(kBlock, n), MustNew(rows, n)
	y.Randn(rng, 1)
	for _, nz := range []int{1, 2, 3, 4, 8, 12, 16, 20, 24, 32, 60} {
		offs := make([][]int, rows)
		av := make([]float64, nz)
		for i := range offs {
			for t := 0; t < nz; t++ {
				offs[i] = append(offs[i], (i+t*(kBlock/nz))%kBlock*n)
			}
		}
		for t := range av {
			av[t] = rng.NormFloat64()
		}
		for _, form := range []string{"one_pass", "stream"} {
			b.Run(fmt.Sprintf("nz=%d/%s", nz, form), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for r := range offs {
						o := dst.Data[r*n : (r+1)*n]
						if form == "one_pass" {
							axpyNAVX2(o, y.Data, offs[r], av, true)
						} else {
							axpyStream(o, y.Data, offs[r], av, true)
							nanSink = maybeNaN(o)
						}
					}
				}
			})
		}
	}
}
