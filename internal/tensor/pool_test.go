package tensor

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSubmittersNeverWaitForEachOther holds every region slot with a kernel
// that blocks on a channel, so each slot's owner and any helper that joined
// it are stuck inside. A further MatMulInto above minParallelWork finds no
// free slot and must return, computed inline, before the held regions are
// released. A pool that serialised regions on one lock would block here; the
// bounded waits turn that into a failure instead of a hang.
func TestSubmittersNeverWaitForEachOther(t *testing.T) {
	const held = 2 // parallelism 3: two helpers, two region slots
	prev := SetParallelism(held + 1)
	entered := make(chan *Matrix, 64) // one send per block of a held region
	release := make(chan struct{})
	block := func(dst, a, b *Matrix, lo, hi int) {
		entered <- dst
		<-release
	}
	var holders sync.WaitGroup
	defer func() {
		close(release)
		holders.Wait()
		SetParallelism(prev)
	}()
	waiting := map[*Matrix]bool{}
	for i := 0; i < held; i++ {
		dst := MustNew(8, 1)
		waiting[dst] = true
		holders.Add(1)
		go func() {
			defer holders.Done()
			par.run(block, dst, nil, nil, dst.Rows, minParallelWork)
		}()
	}
	timeout := time.After(10 * time.Second)
	for len(waiting) > 0 {
		select {
		case dst := <-entered:
			delete(waiting, dst)
		case <-timeout:
			t.Fatalf("%d of %d regions never started: regions do not run side by side", len(waiting), held)
		}
	}

	rng := rand.New(rand.NewSource(41))
	a, b := MustNew(64, 64), MustNew(64, 64)
	a.Randn(rng, 1)
	b.Randn(rng, 1)
	if 64*64*64 < minParallelWork {
		t.Fatalf("64x64x64 is under minParallelWork %d: the call would not ask for a slot", minParallelWork)
	}
	want, _ := MatMul(a, b)
	dst := MustNew(64, 64)
	done := make(chan error, 1)
	go func() { done <- MatMulInto(dst, a, b) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("MatMulInto: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("MatMulInto waited for the regions that hold every slot")
	}
	if !bitsEqual(dst, want) {
		t.Fatal("inline MatMulInto differs from naive")
	}
}

// TestSetParallelismUnderLoad cycles the parallelism through 1 → 2 → 3 →
// 8 → 2 while eight goroutines run the three Into kernels: every result
// stays bit-identical to the naive references, and once the callers stop
// the goroutine count is back at its baseline. Each setting is a new
// generation of helpers and slots published whole; run under -race in CI,
// this is the test that a submitter never sees half of one generation and
// half of the next.
func TestSetParallelismUnderLoad(t *testing.T) {
	forcePool(t)
	SetParallelism(2)
	base := settledGoroutines()
	const callers = 8
	rng := rand.New(rand.NewSource(43))
	ops := make([]kernelOperands, callers)
	for c := range ops {
		ops[c] = newKernelOperands(7+c, 9+3*c, 4+c,
			func(int, int) float64 { return float64(rng.Intn(3)) * rng.NormFloat64() },
			func(int, int) float64 { return rng.NormFloat64() })
	}
	var calls atomic.Int64
	var stop, failed atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(o kernelOperands) {
			defer wg.Done()
			for !stop.Load() {
				if bad := o.diff(); bad != "" {
					failed.Store(true)
					t.Errorf("%s while the parallelism changes", bad)
					return
				}
				calls.Add(1)
			}
		}(ops[c])
	}
	// settle lets every caller finish about one more round on the current
	// setting before the next reconfiguration.
	settle := func() {
		target := calls.Load() + callers
		deadline := time.Now().Add(10 * time.Second)
		for calls.Load() < target && !failed.Load() {
			if time.Now().After(deadline) {
				t.Errorf("callers stalled at parallelism %d", Parallelism())
				return
			}
			runtime.Gosched()
		}
	}
	last := 2
	for round := 0; round < 3 && !failed.Load(); round++ {
		for _, k := range []int{1, 2, 3, 8, 2} {
			if got := SetParallelism(k); got != last {
				t.Errorf("SetParallelism(%d) returned %d, want the previous setting %d", k, got, last)
			}
			last = k
			settle()
		}
	}
	stop.Store(true)
	wg.Wait()
	if got := settledGoroutines(); got != base {
		t.Fatalf("%d goroutines after the callers stopped, %d before", got, base)
	}
}

// settledGoroutines is the goroutine count once goroutines that are exiting
// have gone: a retired helper is still counted for a moment after the
// WaitGroup that SetParallelism waits on has released it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for quiet := 0; quiet < 20; quiet++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n, quiet = m, 0
		}
	}
	return n
}
