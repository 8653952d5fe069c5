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
}

func TestMatMulIntoMatchesNaiveBitwise(t *testing.T) {
	forcePool(t)
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
			for _, workers := range []int{1, 2, 8} {
				SetParallelism(workers)
				dst := MustNew(m, n)
				fillAdversarial(rng, dst, special) // Into must fully overwrite
				if err := MatMulInto(dst, a, b); err != nil {
					t.Fatalf("MatMulInto k=%d shape=%v: %v", workers, sh, err)
				}
				if !bitsEqual(dst, want) {
					t.Fatalf("MatMulInto k=%d shape=%v special=%v differs from naive", workers, sh, special)
				}
			}
		}
	}
}

func TestMatMulATIntoMatchesNaiveBitwise(t *testing.T) {
	forcePool(t)
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
			for _, workers := range []int{1, 2, 8} {
				SetParallelism(workers)
				dst := MustNew(m, n)
				fillAdversarial(rng, dst, special)
				if err := MatMulATInto(dst, a, b); err != nil {
					t.Fatalf("MatMulATInto k=%d shape=%v: %v", workers, sh, err)
				}
				if !bitsEqual(dst, want) {
					t.Fatalf("MatMulATInto k=%d shape=%v special=%v differs from naive", workers, sh, special)
				}
			}
		}
	}
}

func TestMatMulBTIntoMatchesNaiveBitwise(t *testing.T) {
	forcePool(t)
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
			for _, workers := range []int{1, 2, 8} {
				SetParallelism(workers)
				dst := MustNew(m, n)
				fillAdversarial(rng, dst, special)
				if err := MatMulBTInto(dst, a, b); err != nil {
					t.Fatalf("MatMulBTInto k=%d shape=%v: %v", workers, sh, err)
				}
				if !bitsEqual(dst, want) {
					t.Fatalf("MatMulBTInto k=%d shape=%v special=%v differs from naive", workers, sh, special)
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
// parallel alike. AllocsPerRun counts mallocs process-wide, so helper
// goroutine activity is included in the measurement.
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
			t.Fatalf("parallelism %d: %v allocs/op, want 0", workers, avg)
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
							t.Fatalf("%s: %dx%dx%d pattern %q at parallelism %d", bad, m, k, n, p.name, workers)
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
// boundary, for tiles of four, of two and the odd last one.
func TestTiledKernelsNaNRecompute(t *testing.T) {
	forcePool(t)
	nan := func(sign, payload uint64) float64 {
		return math.Float64frombits(sign<<63 | 0x7FF8000000000000 | payload)
	}
	const m, k, n = 8, kBlock + 9, 7
	av := func(i, kk int) float64 {
		if kk < kBlock-3 || kk > kBlock+5 { // nine live k, four before the boundary
			return 0
		}
		live := kk - (kBlock - 3)
		if live >= 2+i { // row i has min(2+i, 9) non-zeros: tiles of 2, 2+1, 4, 4+1, ...
			return 0
		}
		switch {
		case i%4 == 0 && live == 0:
			return nan(0, 0x111)
		case i%4 == 0 && live == 1:
			return nan(1, 0x222)
		case i%4 == 1 && live == 0:
			return math.Inf(1)
		case i%4 == 1 && live == 1:
			return math.Inf(-1)
		case i%4 == 2 && live == 0:
			return math.Inf(1)
		}
		return float64(1 + live)
	}
	bv := func(kk, j int) float64 {
		if j == 3 && kk == kBlock-2 {
			return nan(0, 0x333) // a NaN from b, meeting a's in rows 0 and 4
		}
		if j%2 == 1 {
			return -1.5 // rows i%4 == 2 end as +Inf and -Inf side by side
		}
		return 2.5
	}
	o := newKernelOperands(m, k, n, av, bv)
	want, _ := MatMul(o.a, o.b)
	if !math.IsNaN(want.At(0, 0)) || !math.IsNaN(want.At(1, 0)) || !math.IsInf(want.At(2, 0), 1) || !math.IsInf(want.At(2, 1), -1) || math.IsNaN(want.At(3, 0)) {
		t.Fatalf("operands do not produce the intended NaN, Inf and clean rows: %v", want.Data)
	}
	for _, workers := range []int{1, 2, 8} {
		SetParallelism(workers)
		if bad := o.diff(); bad != "" {
			t.Fatalf("%s on NaN/Inf rows at parallelism %d", bad, workers)
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
// references bit for bit on fuzzer-chosen shapes, parallelism and fill.
func FuzzMatMulIntoBitwise(f *testing.F) {
	f.Add(uint8(1), uint16(1), uint8(1), uint8(0), []byte{5})
	f.Add(uint8(5), uint16(7), uint8(6), uint8(1), []byte{3, 11, 5, 0, 19, 2, 27, 13})
	f.Add(uint8(9), uint16(kBlock+5), uint8(13), uint8(2), []byte{5, 0, 13, 5, 3, 21, 0, 5, 5, 10, 4, 1})
	f.Add(uint8(3), uint16(2*kBlock+1), uint8(4), uint8(3), []byte{0, 0, 0, 5, 0, 0, 0, 0, 13, 3})
	f.Add(uint8(16), uint16(4), uint8(3), uint8(1), []byte{3, 3, 11, 2, 10, 5})
	f.Fuzz(func(t *testing.T, m uint8, k uint16, n, workers uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		forcePool(t)
		SetParallelism([]int{1, 2, 3, 8}[workers%4])
		o := newKernelOperands(1+int(m%16), 1+int(k%300), 1+int(n%16), fillFromBytes(data, 0), fillFromBytes(data, 7))
		if bad := o.diff(); bad != "" {
			t.Fatal(bad)
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
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(o kernelOperands) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				if bad := o.diff(); bad != "" {
					t.Errorf("%s with %d concurrent callers", bad, callers)
					return
				}
			}
		}(ops[c])
	}
	wg.Wait()
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines after the concurrent callers, %d before", after, before)
	}
}
