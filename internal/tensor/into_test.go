package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/elan-sys/elan/internal/racecheck"
)

// forcePool lowers the parallel-work threshold so even 1x1 shapes dispatch
// through the pool, and restores everything on cleanup.
func forcePool(t *testing.T) {
	t.Helper()
	prevWork := minParallelWork
	prevK := Parallelism()
	minParallelWork = 0
	t.Cleanup(func() {
		minParallelWork = prevWork
		SetParallelism(prevK)
	})
}

// hostAVX2 reports whether this host can run the packed path. It is
// detected afresh rather than read from useAVX2, which a race-detector build
// leaves off: this package's own tests still run the packed path there (the
// detector is blind to it, and sees the Go-loop run of each case).
var hostAVX2 = hasAVX2()

// kernelPaths lists the kernel paths this host runs: the Go loops, which
// every host and GOARCH has, then the packed AVX2 tiles where the host has
// AVX2. A test sets useAVX2 to each in turn; the init setting is back at
// cleanup.
func kernelPaths(tb testing.TB) []bool {
	prev := useAVX2
	tb.Cleanup(func() { useAVX2 = prev })
	if hostAVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

// pathName names the kernel path useAVX2 selects, for failure messages.
func pathName() string {
	if useAVX2 {
		return "packed AVX2"
	}
	return "Go loop"
}

// fillAdversarial populates m with a mix of ordinary values, exact zeros
// (which the kernels skip), denormals, infinities and NaNs, so bitwise
// comparison exercises the full accumulation-order contract.
func fillAdversarial(rng *rand.Rand, m *Matrix, special bool) {
	for i := range m.Data {
		switch rng.Intn(8) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = -0.0
		case 2:
			if special {
				m.Data[i] = math.Inf(1 - 2*rng.Intn(2))
			} else {
				m.Data[i] = rng.NormFloat64() * 1e-300
			}
		case 3:
			if special {
				m.Data[i] = math.NaN()
			} else {
				m.Data[i] = rng.NormFloat64() * 1e300
			}
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
}

// bitsEqual compares two matrices bit for bit (so NaN payloads and signed
// zeros must match exactly).
func bitsEqual(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// intoShapes are the adversarial (m, k, n) matmul shapes: 1x1, shapes with
// ragged kBlock remainders, fewer rows than workers, single row/column, and
// a shape big enough to cross minParallelWork at default settings.
var intoShapes = [][3]int{
	{1, 1, 1},
	{1, 7, 1},
	{2, 1, 3},
	{3, 129, 5},   // k = kBlock + 1: ragged remainder tile
	{5, 128, 3},   // k = exactly one tile
	{5, 256, 3},   // k = two exact tiles
	{7, 300, 11},  // two tiles + remainder
	{2, 50, 64},   // rows < any realistic worker count
	{13, 17, 19},  // all-prime raggedness
	{64, 33, 48},  // moderately large, crosses minParallelWork
	{1, 1000, 1},  // long dot product, single row
	{100, 1, 100}, // rank-1 outer product
	// Past one kBlock: widths 8 to 17 take every tail of the packed tiles'
	// 8/4/1 loop, and 5 to 9 and 13 rows put leftover rows beside a 4-row
	// block of the packed MatMulBTInto.
	{3, kBlock + 5, 8}, {3, kBlock + 5, 9}, {3, kBlock + 5, 10}, {3, kBlock + 5, 11}, {3, kBlock + 5, 12},
	{3, kBlock + 5, 13}, {3, kBlock + 5, 14}, {3, kBlock + 5, 15}, {3, kBlock + 5, 16}, {3, kBlock + 5, 17},
	{5, kBlock + 7, 9}, {6, kBlock + 7, 8}, {7, kBlock + 7, 13}, {8, kBlock + 7, 12}, {9, kBlock + 7, 6},
	{13, 2*kBlock + 1, 11},
}

func TestMatMulIntoMatchesNaiveBitwise(t *testing.T) {
	forcePool(t)
	paths := kernelPaths(t)
	rng := rand.New(rand.NewSource(7))
	for _, sh := range intoShapes {
		m, k, n := sh[0], sh[1], sh[2]
		for _, special := range []bool{false, true} {
			a := MustNew(m, k)
			b := MustNew(k, n)
			fillAdversarial(rng, a, special)
			fillAdversarial(rng, b, special)
			want, err := MatMul(a, b)
			if err != nil {
				t.Fatalf("MatMul(%dx%d, %dx%d): %v", m, k, k, n, err)
			}
			for _, packed := range paths {
				useAVX2 = packed
				for _, workers := range []int{1, 2, 8} {
					SetParallelism(workers)
					dst := MustNew(m, n)
					fillAdversarial(rng, dst, special) // Into must fully overwrite
					if err := MatMulInto(dst, a, b); err != nil {
						t.Fatalf("MatMulInto %s k=%d shape=%v: %v", pathName(), workers, sh, err)
					}
					if !bitsEqual(dst, want) {
						t.Fatalf("MatMulInto %s k=%d shape=%v special=%v differs from naive", pathName(), workers, sh, special)
					}
				}
			}
		}
	}
}

func TestMatMulATIntoMatchesNaiveBitwise(t *testing.T) {
	forcePool(t)
	paths := kernelPaths(t)
	rng := rand.New(rand.NewSource(11))
	for _, sh := range intoShapes {
		m, k, n := sh[0], sh[1], sh[2]
		for _, special := range []bool{false, true} {
			a := MustNew(k, m) // dst = a^T b is m x n
			b := MustNew(k, n)
			fillAdversarial(rng, a, special)
			fillAdversarial(rng, b, special)
			want, err := MatMulAT(a, b)
			if err != nil {
				t.Fatalf("MatMulAT shape=%v: %v", sh, err)
			}
			for _, packed := range paths {
				useAVX2 = packed
				for _, workers := range []int{1, 2, 8} {
					SetParallelism(workers)
					dst := MustNew(m, n)
					fillAdversarial(rng, dst, special)
					if err := MatMulATInto(dst, a, b); err != nil {
						t.Fatalf("MatMulATInto %s k=%d shape=%v: %v", pathName(), workers, sh, err)
					}
					if !bitsEqual(dst, want) {
						t.Fatalf("MatMulATInto %s k=%d shape=%v special=%v differs from naive", pathName(), workers, sh, special)
					}
				}
			}
		}
	}
}

func TestMatMulBTIntoMatchesNaiveBitwise(t *testing.T) {
	forcePool(t)
	paths := kernelPaths(t)
	rng := rand.New(rand.NewSource(13))
	for _, sh := range intoShapes {
		m, k, n := sh[0], sh[1], sh[2]
		for _, special := range []bool{false, true} {
			a := MustNew(m, k)
			b := MustNew(n, k) // dst = a b^T is m x n
			fillAdversarial(rng, a, special)
			fillAdversarial(rng, b, special)
			want, err := MatMulBT(a, b)
			if err != nil {
				t.Fatalf("MatMulBT shape=%v: %v", sh, err)
			}
			for _, packed := range paths {
				useAVX2 = packed
				for _, workers := range []int{1, 2, 8} {
					SetParallelism(workers)
					dst := MustNew(m, n)
					fillAdversarial(rng, dst, special)
					if err := MatMulBTInto(dst, a, b); err != nil {
						t.Fatalf("MatMulBTInto %s k=%d shape=%v: %v", pathName(), workers, sh, err)
					}
					if !bitsEqual(dst, want) {
						t.Fatalf("MatMulBTInto %s k=%d shape=%v special=%v differs from naive", pathName(), workers, sh, special)
					}
				}
			}
		}
	}
}

func TestSumRowsIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, sh := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {13, 17}, {200, 3}} {
		m := MustNew(sh[0], sh[1])
		fillAdversarial(rng, m, true)
		want := m.SumRows()
		dst := MustNew(1, sh[1])
		fillAdversarial(rng, dst, true)
		if err := m.SumRowsInto(dst); err != nil {
			t.Fatalf("SumRowsInto %v: %v", sh, err)
		}
		if !bitsEqual(dst, want) {
			t.Fatalf("SumRowsInto %v differs from SumRows", sh)
		}
	}
}

func TestReLUIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, sh := range [][2]int{{1, 1}, {3, 5}, {40, 7}} {
		m := MustNew(sh[0], sh[1])
		fillAdversarial(rng, m, true)
		ref := m.Clone()
		wantMask := ref.ReLU()
		mask := MustNew(sh[0], sh[1])
		fillAdversarial(rng, mask, false) // stale mask must be fully rewritten
		if err := m.ReLUInto(mask); err != nil {
			t.Fatalf("ReLUInto %v: %v", sh, err)
		}
		if !bitsEqual(m, ref) {
			t.Fatalf("ReLUInto %v activation differs from ReLU", sh)
		}
		if !bitsEqual(mask, wantMask) {
			t.Fatalf("ReLUInto %v mask differs from ReLU", sh)
		}
	}
}

func TestIntoKernelShapeAndAliasValidation(t *testing.T) {
	a := MustNew(2, 3)
	b := MustNew(3, 4)
	if err := MatMulInto(MustNew(2, 3), a, b); err == nil {
		t.Fatal("wrong-shape dst accepted")
	}
	if err := MatMulInto(a, a, b); err == nil {
		t.Fatal("dst aliasing a accepted")
	}
	if err := MatMulATInto(MustNew(3, 4), a, MustNew(3, 4)); err == nil {
		t.Fatal("matmulAT with mismatched inner dims accepted")
	}
	if err := MatMulBTInto(MustNew(2, 5), a, MustNew(5, 9)); err == nil {
		t.Fatal("matmulBT with mismatched inner dims accepted")
	}
	m := MustNew(4, 3)
	if err := m.SumRowsInto(MustNew(2, 3)); err == nil {
		t.Fatal("wrong-shape sum-rows dst accepted")
	}
	if err := m.ReLUInto(MustNew(3, 4)); err == nil {
		t.Fatal("wrong-shape relu mask accepted")
	}
	if err := m.ReLUInto(m); err == nil {
		t.Fatal("relu mask aliasing input accepted")
	}
}

// Fuzz-style differential check: random shapes (including degenerate ones)
// through every Into kernel at a randomly chosen parallelism level.
func TestIntoKernelsRandomizedDifferential(t *testing.T) {
	forcePool(t)
	rng := rand.New(rand.NewSource(23))
	levels := []int{1, 2, 3, 8}
	for iter := 0; iter < 60; iter++ {
		m := 1 + rng.Intn(40)
		k := 1 + rng.Intn(300)
		n := 1 + rng.Intn(40)
		SetParallelism(levels[rng.Intn(len(levels))])

		a := MustNew(m, k)
		b := MustNew(k, n)
		fillAdversarial(rng, a, iter%2 == 0)
		fillAdversarial(rng, b, iter%2 == 0)
		want, _ := MatMul(a, b)
		dst := MustNew(m, n)
		if err := MatMulInto(dst, a, b); err != nil {
			t.Fatalf("iter %d: MatMulInto: %v", iter, err)
		}
		if !bitsEqual(dst, want) {
			t.Fatalf("iter %d: MatMulInto(%dx%dx%d) at k=%d differs", iter, m, k, n, Parallelism())
		}

		at := MustNew(k, m)
		fillAdversarial(rng, at, iter%2 == 0)
		wantAT, _ := MatMulAT(at, b)
		dstAT := MustNew(m, n)
		if err := MatMulATInto(dstAT, at, b); err != nil {
			t.Fatalf("iter %d: MatMulATInto: %v", iter, err)
		}
		if !bitsEqual(dstAT, wantAT) {
			t.Fatalf("iter %d: MatMulATInto(%dx%dx%d) at k=%d differs", iter, m, k, n, Parallelism())
		}

		bt := MustNew(n, k)
		fillAdversarial(rng, bt, iter%2 == 0)
		wantBT, _ := MatMulBT(a, bt)
		dstBT := MustNew(m, n)
		if err := MatMulBTInto(dstBT, a, bt); err != nil {
			t.Fatalf("iter %d: MatMulBTInto: %v", iter, err)
		}
		if !bitsEqual(dstBT, wantBT) {
			t.Fatalf("iter %d: MatMulBTInto(%dx%dx%d) at k=%d differs", iter, m, k, n, Parallelism())
		}
	}
}

// TestSetParallelismGoroutineAccounting checks that reconfiguring retires
// the old helper generation synchronously: the resident goroutine count is
// a deterministic function of the setting.
func TestSetParallelismGoroutineAccounting(t *testing.T) {
	prev := SetParallelism(1)
	defer SetParallelism(prev)
	base := runtime.NumGoroutine()
	SetParallelism(5)
	if got := runtime.NumGoroutine(); got != base+4 {
		t.Fatalf("5-way pool: %d goroutines, want %d", got, base+4)
	}
	SetParallelism(2)
	if got := runtime.NumGoroutine(); got != base+1 {
		t.Fatalf("2-way pool: %d goroutines, want %d", got, base+1)
	}
	SetParallelism(1)
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("serial pool: %d goroutines, want %d", got, base)
	}
}

// TestMatMulIntoZeroAllocs is the tentpole proof for the kernels: after the
// operands exist, MatMulInto performs zero allocations per call, serial and
// parallel alike, and eight concurrent callers stay under one a round.
// Mallocs are counted process-wide, so helper goroutine activity is
// included in the measurement.
func TestMatMulIntoZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race CI job")
	}
	forcePool(t)
	rng := rand.New(rand.NewSource(29))
	a := MustNew(64, 64)
	b := MustNew(64, 64)
	dst := MustNew(64, 64)
	a.Randn(rng, 1)
	b.Randn(rng, 1)
	for _, packed := range kernelPaths(t) {
		useAVX2 = packed
		for _, workers := range []int{1, 4} {
			SetParallelism(workers)
			if avg := testing.AllocsPerRun(100, func() {
				if err := MatMulInto(dst, a, b); err != nil {
					t.Fatal(err)
				}
				if err := MatMulATInto(dst, a, b); err != nil {
					t.Fatal(err)
				}
				if err := MatMulBTInto(dst, a, b); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Fatalf("%s, parallelism %d: %v allocs/op, want 0", pathName(), workers, avg)
			}
		}
		// Eight concurrent callers on the shared pool, as a fleet's ranks
		// call it: at parallelism 2 a caller that finds the one region slot
		// taken computes inline. AllocsPerRun runs at GOMAXPROCS 1, where
		// the callers barely overlap, so the mallocs of 100 rounds are
		// counted directly; fewer than one a round leaves room for the
		// runtime's own.
		SetParallelism(2)
		round := startCallers(t, 8, 3, 256, 384)
		round()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			round()
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n >= 100 {
			t.Fatalf("%s, 8 concurrent callers: %d allocs in 100 rounds, want fewer than 100", pathName(), n)
		}
	}
}

// kernelOperands holds one logical product A(m x k) * B(k x n) laid out for
// all three Into kernels: a and b for MatMulInto, at = Aᵀ for MatMulATInto
// (with b), bt = Bᵀ for MatMulBTInto (with a).
type kernelOperands struct {
	a, b, at, bt *Matrix
}

// newKernelOperands fills A and B element by element from the two value
// functions and derives the transposed layouts, so one pattern of zeros and
// specials reaches the row, the strided and the dot-product kernel alike.
func newKernelOperands(m, k, n int, av func(i, k int) float64, bv func(k, j int) float64) kernelOperands {
	o := kernelOperands{a: MustNew(m, k), b: MustNew(k, n), at: MustNew(k, m), bt: MustNew(n, k)}
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			v := av(i, kk)
			o.a.Set(i, kk, v)
			o.at.Set(kk, i, v)
		}
	}
	for kk := 0; kk < k; kk++ {
		for j := 0; j < n; j++ {
			v := bv(kk, j)
			o.b.Set(kk, j, v)
			o.bt.Set(j, kk, v)
		}
	}
	return o
}

// diff runs the three Into kernels at the current parallelism over stale
// destinations and names the first one that fails or whose result is not
// bit-identical to its naive reference ("" when all agree). It never fails
// the test itself, so goroutines other than the test's may call it.
func (o kernelOperands) diff() string {
	for _, c := range []struct {
		name  string
		naive func(a, b *Matrix) (*Matrix, error)
		into  func(dst, a, b *Matrix) error
		a, b  *Matrix
	}{
		{"MatMulInto", MatMul, MatMulInto, o.a, o.b},
		{"MatMulATInto", MatMulAT, MatMulATInto, o.at, o.b},
		{"MatMulBTInto", MatMulBT, MatMulBTInto, o.a, o.bt},
	} {
		want, err := c.naive(c.a, c.b)
		if err != nil {
			return c.name + " reference: " + err.Error()
		}
		dst := MustNew(want.Rows, want.Cols)
		for i := range dst.Data {
			dst.Data[i] = math.NaN() // Into must fully overwrite
		}
		if err := c.into(dst, c.a, c.b); err != nil {
			return c.name + ": " + err.Error()
		}
		if !bitsEqual(dst, want) {
			return c.name + " differs from naive"
		}
	}
	return ""
}

// TestRaceBuildRunsGoLoops: the race detector does not see the assembly's
// loads and stores, so a -race build must run the Go loops, or the -race
// runs of the packages that share matrices across goroutines (the gradient
// arena of DESIGN §9) would miss every kernel write into them.
func TestRaceBuildRunsGoLoops(t *testing.T) {
	if racecheck.Enabled && useAVX2 {
		t.Fatal("useAVX2 is set in a race-detector build")
	}
	if !racecheck.Enabled && useAVX2 != hostAVX2 {
		t.Fatalf("useAVX2 = %v, host AVX2 = %v", useAVX2, hostAVX2)
	}
}

// TestTiledKernelsEveryRemainder drives the register tiles through every
// remainder they have: output widths, row counts and per-row non-zero
// counts of every residue mod 4 (all-zero rows included), non-zeros that
// straddle a kBlock boundary, and a shared dimension of more than two
// kBlocks (a.Rows > kBlock for the AT kernel).
func TestTiledKernelsEveryRemainder(t *testing.T) {
	forcePool(t)
	rng := rand.New(rand.NewSource(31))
	val := func() float64 { return rng.NormFloat64() + 3 } // never zero
	patterns := []struct {
		name    string
		nonZero func(i, k int) bool
	}{
		{"dense", func(i, k int) bool { return true }},
		{"i%9 leading non-zeros", func(i, k int) bool { return k < i%9 }},
		{"straddling kBlock", func(i, k int) bool { return k >= kBlock-1-i%4 && k <= kBlock+i%3 }},
		{"every third", func(i, k int) bool { return (i+k)%3 == 0 }},
	}
	for _, packed := range kernelPaths(t) {
		useAVX2 = packed
		for _, workers := range []int{1, 2, 8} {
			SetParallelism(workers)
			for _, p := range patterns {
				for _, m := range []int{1, 2, 3, 4, 5, 9} {
					for _, k := range []int{1, 2, 3, 4, 5, 7, kBlock + 2, 2*kBlock + 3} {
						for n := 1; n <= 9; n++ {
							o := newKernelOperands(m, k, n,
								func(i, kk int) float64 {
									if p.nonZero(i, kk) {
										return val()
									}
									return 0
								},
								func(int, int) float64 { return val() })
							if bad := o.diff(); bad != "" {
								t.Fatalf("%s (%s): %dx%dx%d pattern %q at parallelism %d", bad, pathName(), m, k, n, p.name, workers)
							}
						}
					}
				}
			}
		}
	}
}

// TestTiledKernelsNaNRecompute forces the recompute path of all three
// kernels: rows whose sum meets two NaNs of different payload and sign (the
// survivor depends on which operand of the addition each arrives in), rows
// where Inf-Inf makes the NaN, rows of ±Inf only (the sum check's false
// positive) and clean rows in between, in the first tile and past a kBlock
// boundary. Rows 0-7 have 2 to 9 live terms straddling the boundary (the
// Go loops' tiles of four, of two and the odd last one; the packed path's
// one-pass tiles), rows 8-11 have 17 to 23 (streaming tiles on both paths).
// Row 12's only NaN is in one column c, where two NaNs of b meet, and c
// takes in turn the one-pass tile's scalar tail, its 4-lane group and each
// register pair of its 32-lane group, which must flag it alone. The rest of
// b's pattern repeats every 9 columns, so at 8+9 columns the NaNs reach
// the packed MatMulBTInto's 8-column kernel, at 3 rows its few-row form,
// and at 512+9 columns the second column panel of the first tile.
func TestTiledKernelsNaNRecompute(t *testing.T) {
	forcePool(t)
	nan := func(sign, payload uint64) float64 {
		return math.Float64frombits(sign<<63 | 0x7FF8000000000000 | payload)
	}
	const k = kBlock + 9
	av := func(i, kk int) float64 {
		start, n, class := kBlock-3, 2+i, i%4 // nine live k, four before the boundary
		switch {
		case i == 12:
			start, n, class = kBlock+6, 3, 3
		case i >= 8:
			start, n = kBlock-20, 17+2*(i-8)
		}
		live := kk - start
		if live < 0 || live >= n {
			return 0
		}
		switch {
		case class == 0 && live == 0:
			return nan(0, 0x111)
		case class == 0 && live == 1:
			return nan(1, 0x222)
		case class == 1 && live == 0:
			return math.Inf(1)
		case class == 1 && live == 1:
			return math.Inf(-1)
		case class == 2 && live == 0:
			return math.Inf(1)
		}
		return float64(1 + live)
	}
	c := 0
	bv := func(kk, j int) float64 {
		switch {
		case j%9 == 3 && kk == kBlock-2:
			return nan(0, 0x333) // a NaN from b, meeting a's in rows 0 and 4
		case j == c && kk == kBlock+6:
			return nan(1, 0x444) // two NaNs from b alone, in row 12
		case j == c && kk == kBlock+8:
			return nan(0, 0x555)
		case j%9%2 == 1:
			return -1.5 // rows i%4 == 2 end as +Inf and -Inf side by side
		}
		return 2.5
	}
	for _, sh := range [][3]int{{13, 9, 8}, {13, 40, 37}, {13, 32, 5}, {13, 32, 14}, {13, 32, 20}, {13, 32, 27}, {3, 17, 0}, {5, 512 + 9, 0}} {
		m, n := sh[0], sh[1]
		c = sh[2]
		o := newKernelOperands(m, k, n, av, bv)
		want, _ := MatMul(o.a, o.b)
		if !math.IsNaN(want.At(0, 0)) || !math.IsNaN(want.At(1, 0)) || !math.IsInf(want.At(2, 0), 1) || !math.IsInf(want.At(2, 1), -1) || (m > 3 && math.IsNaN(want.At(3, 0))) {
			t.Fatalf("%dx%dx%d: operands do not produce the intended NaN, Inf and clean rows", m, k, n)
		}
		for _, packed := range kernelPaths(t) {
			useAVX2 = packed
			for _, workers := range []int{1, 2, 8} {
				SetParallelism(workers)
				if bad := o.diff(); bad != "" {
					t.Fatalf("%s (%s) on NaN/Inf rows of %dx%dx%d at parallelism %d", bad, pathName(), m, k, n, workers)
				}
			}
		}
	}
}

// TestOnePassTiles runs tiles of 1 to 17 non-zero terms, on both sides of
// onePassTerms, through MatMulInto and MatMulATInto: row 0 takes them in
// the first tile alone, row 1 in the first tile and again in the continued
// second, row 2 only in the continued tile after an empty first. The widths
// take the one-pass loop's 32-lane groups, every count of 4-lane groups
// after them and every scalar tail.
func TestOnePassTiles(t *testing.T) {
	forcePool(t)
	rng := rand.New(rand.NewSource(41))
	const k = kBlock + 40
	for _, packed := range kernelPaths(t) {
		useAVX2 = packed
		for nz := 1; nz <= 17; nz++ {
			av := func(i, kk int) float64 {
				tile, off := kk/kBlock, kk%kBlock
				if (i == 0 && tile == 1) || (i == 2 && tile == 0) || off%2 == 1 || off/2 >= nz {
					return 0
				}
				return rng.NormFloat64()
			}
			for _, n := range []int{1, 3, 4, 7, 31, 32, 33, 37, 42, 47, 52, 57, 62, 63, 64, 99} {
				o := newKernelOperands(3, k, n, av, func(int, int) float64 { return rng.NormFloat64() })
				if bad := o.diff(); bad != "" {
					t.Fatalf("%s (%s): %d terms a tile, width %d", bad, pathName(), nz, n)
				}
			}
		}
	}
}

// TestColumnPanels runs shapes whose kBlock tile of b outgrows panelElems,
// so axpyRows sweeps it in column panels with a ragged last one (at
// 5x300x1100: 512, 512 and 76 columns, then the shorter last tile in one),
// on finite values with zeros: no NaN arises, so no recompute can hide a
// panel that reads the wrong part of b.
func TestColumnPanels(t *testing.T) {
	forcePool(t)
	rng := rand.New(rand.NewSource(47))
	val := func(int, int) float64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return rng.NormFloat64()
	}
	for _, sh := range [][3]int{{5, 300, 1100}, {3, kBlock + 1, 530}} {
		if panelWidth(kBlock, sh[2]) == sh[2] {
			t.Fatalf("%v: one panel", sh)
		}
		o := newKernelOperands(sh[0], sh[1], sh[2], val, val)
		for _, packed := range kernelPaths(t) {
			useAVX2 = packed
			for _, workers := range []int{1, 2} {
				SetParallelism(workers)
				if bad := o.diff(); bad != "" {
					t.Fatalf("%s (%s): %v at parallelism %d", bad, pathName(), sh, workers)
				}
			}
		}
	}
}

// TestMatMulBTIntoFewRows covers MatMulBTInto's rows outside 4-row blocks:
// 1 to 3 rows alone and beside one block (5 to 7), at widths 1 to 17 (the
// packed path's 8-column groups with every scalar tail), for shared
// dimensions of every residue mod 4 (the packed kernel's four-k steps)
// including past one kBlock, on adversarial fills.
func TestMatMulBTIntoFewRows(t *testing.T) {
	forcePool(t)
	SetParallelism(1)
	rng := rand.New(rand.NewSource(43))
	for _, packed := range kernelPaths(t) {
		useAVX2 = packed
		for _, m := range []int{1, 2, 3, 5, 6, 7} {
			for _, k := range []int{1, 2, 3, 4, 7, kBlock + 5, kBlock + 6} {
				for n := 1; n <= 17; n++ {
					a, b := MustNew(m, k), MustNew(n, k)
					special := (m+k+n)%2 == 0
					fillAdversarial(rng, a, special)
					fillAdversarial(rng, b, special)
					want, _ := MatMulBT(a, b)
					dst := MustNew(m, n)
					fillAdversarial(rng, dst, true)
					if err := MatMulBTInto(dst, a, b); err != nil {
						t.Fatal(err)
					}
					if !bitsEqual(dst, want) {
						t.Fatalf("MatMulBTInto (%s) %dx%dx%d special=%v differs from naive", pathName(), m, k, n, special)
					}
				}
			}
		}
	}
}

// fillFromBytes is the fuzz target's adversarial fill: the low three bits
// of each corpus byte pick the class of an element (zero, negative zero,
// ±Inf, a NaN with its own payload and sign, or an ordinary value), so the
// fuzzer steers where the skipped zeros and the order-sensitive NaNs fall.
func fillFromBytes(data []byte, off int) func(int, int) float64 {
	return func(r, c int) float64 {
		x := data[(off+r*31+c)%len(data)]
		hi := uint64(x >> 3)
		switch x & 7 {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.Inf(1 - 2*int(hi&1))
		case 3:
			return math.Float64frombits((hi&1)<<63 | 0x7FF8000000000000 | hi<<8 | 1)
		case 4:
			return (float64(hi) - 15.5) * 1e300
		default:
			return float64(hi) - 15.5
		}
	}
}

// FuzzMatMulIntoBitwise checks all three Into kernels against the naive
// references bit for bit on fuzzer-chosen shapes, parallelism and fill. The
// output width is 1-16 plus 16 times a 0-47 scale, so a kBlock tile of b
// can outgrow panelElems and take column panels.
func FuzzMatMulIntoBitwise(f *testing.F) {
	f.Add(uint8(1), uint16(1), uint8(1), uint8(0), uint8(0), []byte{5})
	f.Add(uint8(5), uint16(7), uint8(6), uint8(1), uint8(0), []byte{3, 11, 5, 0, 19, 2, 27, 13})
	f.Add(uint8(9), uint16(kBlock+5), uint8(13), uint8(2), uint8(0), []byte{5, 0, 13, 5, 3, 21, 0, 5, 5, 10, 4, 1})
	f.Add(uint8(3), uint16(2*kBlock+1), uint8(4), uint8(3), uint8(0), []byte{0, 0, 0, 5, 0, 0, 0, 0, 13, 3})
	f.Add(uint8(16), uint16(4), uint8(3), uint8(1), uint8(0), []byte{3, 3, 11, 2, 10, 5})
	// Column panels: 6 rows, two tiles, 16+512 columns.
	f.Add(uint8(5), uint16(kBlock+9), uint8(15), uint8(1), uint8(32), []byte{5, 3, 13, 0, 21, 6, 5, 11, 2})
	// One-pass tiles of at most 5 terms, some of a's entries zero, over
	// 3 rows of 39 (a 32-lane group, a 4-lane group and a tail of 3).
	f.Add(uint8(2), uint16(4), uint8(6), uint8(0), uint8(2), []byte{5, 0, 13, 21, 8, 6, 3, 29})
	// MatMulBTInto's few-row kernel: 1 and 3 rows, 8-column groups, NaNs.
	f.Add(uint8(0), uint16(kBlock+4), uint8(10), uint8(0), uint8(0), []byte{5, 3, 13, 14, 6})
	f.Add(uint8(2), uint16(9), uint8(15), uint8(2), uint8(0), []byte{5, 11, 3, 19, 2, 5})
	f.Fuzz(func(t *testing.T, m uint8, k uint16, n, workers, wide uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		forcePool(t)
		SetParallelism([]int{1, 2, 3, 8}[workers%4])
		o := newKernelOperands(1+int(m%16), 1+int(k%300), 1+int(n%16)+16*int(wide%48), fillFromBytes(data, 0), fillFromBytes(data, 7))
		for _, packed := range kernelPaths(t) {
			useAVX2 = packed
			if bad := o.diff(); bad != "" {
				t.Fatalf("%s (%s)", bad, pathName())
			}
		}
	})
}

// TestTiledKernelsConcurrentCallers runs more callers than Parallelism()
// through the pool at once, as the ranks of a Fleet do: callers take the
// region slots or compute inline, helpers of one generation serve whichever
// regions are open, each caller's results stay bit-identical to the naive
// references, and no goroutine is left behind. Run under -race in CI.
func TestTiledKernelsConcurrentCallers(t *testing.T) {
	forcePool(t)
	SetParallelism(2)
	const callers = 8
	rng := rand.New(rand.NewSource(37))
	ops := make([]kernelOperands, callers)
	for c := range ops {
		ops[c] = newKernelOperands(9+c, kBlock+c, 5+c,
			func(int, int) float64 { return float64(rng.Intn(3)) * rng.NormFloat64() },
			func(int, int) float64 { return rng.NormFloat64() })
	}
	for _, packed := range kernelPaths(t) {
		useAVX2 = packed
		path := pathName()
		before := settledGoroutines()
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(o kernelOperands) {
				defer wg.Done()
				for r := 0; r < 20; r++ {
					if bad := o.diff(); bad != "" {
						t.Errorf("%s (%s) with %d concurrent callers", bad, path, callers)
						return
					}
				}
			}(ops[c])
		}
		wg.Wait()
		// A caller that has signalled wg is counted until it has exited, so
		// count once the callers are gone; a leaked goroutine never goes.
		if after := settledGoroutines(); after != before {
			t.Fatalf("%s: %d goroutines after the concurrent callers, %d before", path, after, before)
		}
	}
}
