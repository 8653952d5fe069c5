package collective

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/racecheck"
	"github.com/elan-sys/elan/internal/telemetry"
)

// startPeers launches ranks 1..n-1 looping AllReduce until the group closes,
// so the measured rank 0 always has partners.
func startPeers(t *testing.T, g *Group, vecs [][]float64) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for r := 1; r < g.Size(); r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := g.AllReduce(r, vecs[r]); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("rank %d: %v", r, err)
					}
					return
				}
			}
		}()
	}
	return &wg
}

// TestAllReduceZeroAllocs is the tentpole proof for the collective layer:
// once the ranks' goroutines are warm, a bare (un-instrumented) allreduce
// allocates nothing, on one node and on a 2×4 placement alike.
// AllocsPerRun counts mallocs process-wide, so the measurement covers every
// rank, not just the caller.
func TestAllReduceZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race CI job")
	}
	const size = 4096
	for name, topo := range map[string]Topology{
		"flat 4":        Flat(4),
		"clustered 2x4": clustered(t, 4, 4),
	} {
		t.Run(name, func(t *testing.T) {
			g, err := NewGroupWithTopology(topo)
			if err != nil {
				t.Fatal(err)
			}
			vecs := make([][]float64, g.Size())
			for r := range vecs {
				vecs[r] = make([]float64, size)
			}
			wg := startPeers(t, g, vecs)
			for i := 0; i < 3; i++ { // warm every rank up
				if err := g.AllReduce(0, vecs[0]); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(100, func() {
				if err := g.AllReduce(0, vecs[0]); err != nil {
					t.Fatal(err)
				}
			})
			g.Close()
			wg.Wait()
			if avg != 0 {
				t.Fatalf("%v allocs per allreduce, want 0", avg)
			}
		})
	}
}

// TestScratchArenaSurvivesSizeChanges runs alternating vector lengths
// through one group, which must keep producing correct sums: a group keeps
// no buffers sized by an earlier call.
func TestScratchArenaSurvivesSizeChanges(t *testing.T) {
	const n = 3
	g, err := NewGroup(n)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, size := range []int{7, 1024, 7, 31, 4096, 1} {
		var wg sync.WaitGroup
		errs := make([]error, n)
		vecs := make([][]float64, n)
		for r := 0; r < n; r++ {
			vecs[r] = make([]float64, size)
			for i := range vecs[r] {
				vecs[r][i] = float64(r + i)
			}
		}
		for r := 0; r < n; r++ {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[r] = g.AllReduce(r, vecs[r])
			}()
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("size %d rank %d: %v", size, r, err)
			}
		}
		for r := 0; r < n; r++ {
			for i := range vecs[r] {
				want := float64(n*i + (n-1)*n/2) // sum over ranks of (r+i)
				if vecs[r][i] != want {
					t.Fatalf("size %d rank %d elem %d: %v, want %v", size, r, i, vecs[r][i], want)
				}
			}
		}
	}
}

// TestInstrumentedGroupRecords checks the SetTelemetry path: the same
// allreduce math, plus spans and metrics.
func TestInstrumentedGroupRecords(t *testing.T) {
	const n = 2
	g, err := NewGroup(n)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(clock.Wall{}, 16)
	g.SetTelemetry(rec, reg, clock.Wall{}, "inproc")
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			vec := []float64{float64(r), 1}
			if err := g.AllReduce(r, vec); err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("collective_allreduce_total").Value(); got != n {
		t.Fatalf("allreduce counter %d, want %d", got, n)
	}
	if got := reg.Counter("collective_allreduce_elements_total").Value(); got != 2*n {
		t.Fatalf("elements counter %d, want %d", got, 2*n)
	}
	if got := rec.Len(); got != n {
		t.Fatalf("%d spans, want %d", got, n)
	}
}

// BenchmarkAllReduceBare measures the un-instrumented fast path on 4 and 8
// ranks (8 is the benchmark's steady_comm fleet); warm, it reports
// 0 allocs/op. One op is one allreduce of a 64k-element
// vector, timed at rank 0 while the other ranks loop.
func BenchmarkAllReduceBare(b *testing.B) {
	for _, n := range []int{4, 8} {
		b.Run(fmt.Sprintf("%dx64k", n), func(b *testing.B) {
			const size = 1 << 16
			g, err := NewGroup(n)
			if err != nil {
				b.Fatal(err)
			}
			vecs := make([][]float64, n)
			for r := range vecs {
				vecs[r] = make([]float64, size)
			}
			var wg sync.WaitGroup
			for r := 1; r < n; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						if err := g.AllReduce(r, vecs[r]); err != nil {
							return
						}
					}
				}()
			}
			for i := 0; i < 3; i++ {
				if err := g.AllReduce(0, vecs[0]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.SetBytes(int64(size * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.AllReduce(0, vecs[0]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			g.Close()
			wg.Wait()
		})
	}
}
