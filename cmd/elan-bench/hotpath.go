package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/collective"
	"github.com/elan-sys/elan/internal/data"
	"github.com/elan-sys/elan/internal/ddp"
	"github.com/elan-sys/elan/internal/nn"
	"github.com/elan-sys/elan/internal/tensor"
)

// hotBenchResult is one row of the -json hot-path report. Allocation
// figures are measured process-wide via runtime.MemStats, so multi-rank
// benchmarks include every participant — which is exactly the
// zero-steady-state-allocation contract the hot path promises.
type hotBenchResult struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	Note        string  `json:"note,omitempty"`
}

// parallel128Note explains the one row of the report that reads oddly. Its
// figures were measured on the 2-vCPU VM that produced BENCH_hotpath.json.
const parallel128Note = "between the serial row and about 0.6 of it on a 2-processor host, run to run: the helper is " +
	"woken through a channel, and waking a parked thread on an idle (virtual) processor took 0.1 ms at the median " +
	"and sometimes longer than half of this kernel (0.35 ms). The submitter never waits for a wake-up: it takes " +
	"blocks from the dynamic cursor at once and at the end waits only for a helper that has entered its region, " +
	"for at most the block that helper holds; a helper that wakes after the last block finds the region closed. " +
	"So the row gains what the helper computed once awake, and loses nothing when it is late. " +
	"matmul_into_60x512x512_dense_parallel is the same dispatch at a workload shape, where the wake-up is a " +
	"few percent of the region."

// callersNote says what one op of the concurrent-callers row is.
const callersNote = "one op is eight concurrent calls, one on each of eight goroutines, as steady_comm's eight ranks " +
	"issue their first layer's forward; the pool is the default one (parallelism GOMAXPROCS), so as many callers as " +
	"there are region slots fan out to the helpers and the others compute inline, none waiting for another"

// measureHot times iters calls of fn after one warm-up call (which builds
// workspaces, so the steady state is what gets measured).
func measureHot(clk clock.Clock, name string, iters int, fn func() error) (hotBenchResult, error) {
	r := hotBenchResult{Name: name, Iters: iters}
	if err := fn(); err != nil {
		return r, fmt.Errorf("%s: warm-up: %w", name, err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := clk.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return r, fmt.Errorf("%s: iter %d: %w", name, i, err)
		}
	}
	elapsed := clk.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(iters)
	r.NsPerOp = float64(elapsed.Nanoseconds()) / n
	r.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / n
	r.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / n
	return r, nil
}

// hotpathBenches runs the hot-path micro-benchmarks: naive vs Into matmul
// (serial and parallel), the three Into kernels at the benchmark workload's
// layer shapes, eight concurrent callers sharing the pool, the two forms of
// a layer's backward and the optimizer pass at steady_comm's largest layer,
// the training step the runtime runs, and the bare ring allreduce. quick
// shrinks iteration counts for tests.
func hotpathBenches(quick bool) ([]hotBenchResult, error) {
	clk := clock.Wall{}
	scale := 1
	if quick {
		scale = 50
	}
	var results []hotBenchResult
	add := func(name string, iters int, fn func() error) error {
		if iters < 25 {
			iters = 25 // allocs/op is process-wide mallocs over iters: a few of the runtime's own must stay well under one
		}
		r, err := measureHot(clk, name, iters, fn)
		if err != nil {
			return err
		}
		results = append(results, r)
		return nil
	}

	rng := rand.New(rand.NewSource(1))
	const mm = 128
	x := tensor.MustNew(mm, mm)
	y := tensor.MustNew(mm, mm)
	dst := tensor.MustNew(mm, mm)
	x.Randn(rng, 1)
	y.Randn(rng, 1)
	if err := add("matmul_naive_128", 500/scale, func() error {
		_, err := tensor.MatMul(x, y)
		return err
	}); err != nil {
		return nil, err
	}
	prev := tensor.SetParallelism(1)
	err := add("matmul_into_128_serial", 500/scale, func() error {
		return tensor.MatMulInto(dst, x, y)
	})
	tensor.SetParallelism(prev)
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2 // exercise the pool dispatch even on one CPU
	}
	prev = tensor.SetParallelism(workers)
	err = add(fmt.Sprintf("matmul_into_128_parallel_%d", workers), 500/scale, func() error {
		return tensor.MatMulInto(dst, x, y)
	})
	tensor.SetParallelism(prev)
	if err != nil {
		return nil, err
	}
	results[len(results)-1].Note = parallel128Note

	// The three kernels at the layer shapes of the repository benchmark's
	// steady_compute workload (60 samples a rank, MLP 128-512-512-10), named
	// batch x in x out: forward, weight gradient (AT) and input gradient
	// (BT) of one layer. relu zeroes the negative half of the a operand, as
	// hidden activations and masked gradients are. Serial, so a row is the
	// kernel's own speed; the last row adds the pool at the largest shape.
	kernels := []struct {
		name string
		into func(dst, a, b *tensor.Matrix) error
		dims func(n, in, out int) (dst, a, b [2]int)
	}{
		{"matmul_into", tensor.MatMulInto, func(n, in, out int) (_, _, _ [2]int) { return [2]int{n, out}, [2]int{n, in}, [2]int{in, out} }},
		{"matmul_at_into", tensor.MatMulATInto, func(n, in, out int) (_, _, _ [2]int) { return [2]int{in, out}, [2]int{n, in}, [2]int{n, out} }},
		{"matmul_bt_into", tensor.MatMulBTInto, func(n, in, out int) (_, _, _ [2]int) { return [2]int{n, in}, [2]int{n, out}, [2]int{in, out} }},
	}
	for _, k := range kernels {
		for _, sh := range [][3]int{{60, 512, 512}, {60, 128, 512}} {
			for _, fill := range []string{"dense", "relu"} {
				dd, da, db := k.dims(sh[0], sh[1], sh[2])
				kd, ka, kb := tensor.MustNew(dd[0], dd[1]), tensor.MustNew(da[0], da[1]), tensor.MustNew(db[0], db[1])
				ka.Randn(rng, 1)
				kb.Randn(rng, 1)
				if fill == "relu" {
					ka.ReLU()
				}
				name := fmt.Sprintf("%s_%dx%dx%d_%s", k.name, sh[0], sh[1], sh[2], fill)
				run := func() error { return k.into(kd, ka, kb) }
				settings := []int{1}
				if name == "matmul_into_60x512x512_dense" {
					settings = []int{1, workers}
				}
				for _, par := range settings {
					if par > 1 {
						name = fmt.Sprintf("%s_parallel_%d", name, par)
					}
					prev := tensor.SetParallelism(par)
					err := add(name, 250/scale, run)
					tensor.SetParallelism(prev)
					if err != nil {
						return nil, err
					}
				}
			}
		}
	}

	// The first layer's forward of the repository benchmark's steady_comm
	// workload (3 samples a rank, 256 -> 384) as its eight ranks issue it:
	// one op is one call on each of eight resident goroutines at once, all on
	// the default pool, so the region slots are contended the way a fleet
	// contends them.
	round, stopCallers := concurrentCallers(rng, callers, 3, 256, 384)
	err = add(fmt.Sprintf("matmul_into_3x256x384_callers_%d", callers), 250/scale, round)
	stopCallers()
	if err != nil {
		return nil, err
	}
	results[len(results)-1].Note = callersNote

	// One layer of the repository benchmark's steady_comm workload at its
	// widest (3 samples a rank, 384 -> 384): backward onto gradients
	// ZeroGrads marked zero, which writes the gradient arena directly — the
	// step's form — beside backward onto gradients that hold something, which
	// computes into scratch and adds; then the optimizer's one pass over the
	// layer's parameters.
	const lrows, lwidth = 3, 384
	layer, err := nn.NewReplica(rand.New(rand.NewSource(1)), []int{lwidth, lwidth}, 0.05, 0.9)
	if err != nil {
		return nil, err
	}
	lx, lgrad := tensor.MustNew(lrows, lwidth), tensor.MustNew(lrows, lwidth)
	lx.Randn(rng, 1)
	lgrad.Randn(rng, 1)
	if _, err := layer.Net.Forward(lx); err != nil {
		return nil, err
	}
	shape := fmt.Sprintf("%dx%dx%d", lrows, lwidth, lwidth)
	if err := add("backward_direct_"+shape, 250/scale, func() error {
		layer.Net.ZeroGrads()
		return layer.Net.Backward(lgrad)
	}); err != nil {
		return nil, err
	}
	if err := add("backward_accumulate_"+shape, 250/scale, func() error {
		return layer.Net.Backward(lgrad)
	}); err != nil {
		return nil, err
	}
	if err := add(fmt.Sprintf("sgd_step_fused_%d", layer.Net.NumParams()), 250/scale, func() error {
		return layer.Opt.Step(layer.Net.Params(), layer.Net.Grads())
	}); err != nil {
		return nil, err
	}

	// The step Agent.step runs, on a single-rank group: batch, ZeroGrads,
	// forward, loss, the reducer's backward over the gradient arena (its
	// exchange is a no-op here; allreduce_bare below is the exchange), the
	// optimizer.
	ds, err := data.GenGaussianMixture(1, 2048, 8, 3)
	if err != nil {
		return nil, err
	}
	rep, err := nn.NewReplica(rand.New(rand.NewSource(1)), []int{8, 32, 32, 3}, 0.05, 0.9)
	if err != nil {
		return nil, err
	}
	red := ddp.New(rep.Net, ddp.Config{})
	defer red.Close()
	solo, err := collective.NewGroup(1)
	if err != nil {
		return nil, err
	}
	defer solo.Close()
	const batch = 32
	bx := tensor.MustNew(batch, ds.Features)
	by := make([]int, batch)
	cursor := 0
	if err := add("train_step_32x8-32-32-3", 500/scale, func() error {
		if err := ds.BatchInto(bx, by, cursor, cursor+batch); err != nil {
			return err
		}
		cursor = (cursor + batch) % ds.N()
		rep.Net.ZeroGrads()
		out, err := rep.Net.Forward(bx)
		if err != nil {
			return err
		}
		_, grad, err := rep.Net.SoftmaxLoss(out, by)
		if err != nil {
			return err
		}
		if err := red.BackwardAllReduce(solo, 0, grad); err != nil {
			return err
		}
		return rep.Opt.Step(rep.Net.Params(), rep.Net.Grads())
	}); err != nil {
		return nil, err
	}

	const ranks, vecLen = 4, 1 << 16
	g, err := collective.NewGroup(ranks)
	if err != nil {
		return nil, err
	}
	vecs := make([][]float64, ranks)
	for r := range vecs {
		vecs[r] = make([]float64, vecLen)
	}
	for r := 1; r < ranks; r++ {
		r := r
		go func() {
			for g.AllReduce(r, vecs[r]) == nil {
			}
		}()
	}
	err = add(fmt.Sprintf("allreduce_bare_%dx%d", ranks, vecLen), 200/scale, func() error {
		return g.AllReduce(0, vecs[0])
	})
	g.Close()
	if err != nil {
		return nil, err
	}
	return results, nil
}

// callers is the rank count of the repository benchmark's steady_comm
// workload.
const callers = 8

// concurrentCallers starts n goroutines, each owning a destination for
// MatMulInto of one shared m x k and k x n operand pair. round makes every
// goroutine do one call and returns when all have; stop ends the goroutines.
func concurrentCallers(rng *rand.Rand, n, m, k, cols int) (round func() error, stop func()) {
	a, b := tensor.MustNew(m, k), tensor.MustNew(k, cols)
	a.Randn(rng, 1)
	b.Randn(rng, 1)
	start := make([]chan struct{}, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := range start {
		start[c] = make(chan struct{})
		dst := tensor.MustNew(m, cols)
		go func() {
			for range start[c] {
				errs[c] = tensor.MatMulInto(dst, a, b)
				wg.Done()
			}
		}()
	}
	round = func() error {
		wg.Add(n)
		for _, s := range start {
			s <- struct{}{}
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	stop = func() {
		for _, s := range start {
			close(s)
		}
	}
	return round, stop
}

// writeHotpathJSON runs the hot-path benchmarks and writes the report.
func writeHotpathJSON(path string, quick bool, w io.Writer) error {
	results, err := hotpathBenches(quick)
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	for _, r := range results {
		fmt.Fprintf(w, "%-40s %12.0f ns/op %8.1f allocs/op %12.1f B/op\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}
	fmt.Fprintf(w, "wrote %d benchmarks to %s\n", len(results), path)
	return nil
}
