// Package tensor implements the minimal dense linear algebra needed by the
// pure-Go neural-network substrate: row-major float64 matrices with the
// operations required for MLP forward/backward passes (matmul with optional
// transposition, elementwise maps, axpy) and flattening helpers used by the
// gradient allreduce and by training-state replication.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix. Data has length Rows*Cols.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New allocates a zero matrix of the given shape.
func New(rows, cols int) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("tensor: invalid shape %dx%d", rows, cols)
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}, nil
}

// MustNew is New for statically correct shapes; it panics on invalid shape
// and is intended for package-internal construction only.
func MustNew(rows, cols int) *Matrix {
	m, err := New(rows, cols)
	if err != nil {
		panic(err)
	}
	return m
}

// FromSlice wraps data (not copied) as a rows x cols matrix.
func FromSlice(rows, cols int, data []float64) (*Matrix, error) {
	if rows*cols != len(data) {
		return nil, fmt.Errorf("tensor: %dx%d needs %d values, got %d", rows, cols, rows*cols, len(data))
	}
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("tensor: invalid shape %dx%d", rows, cols)
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}, nil
}

// Randn fills m with N(0, stddev^2) samples from rng.
func (m *Matrix) Randn(rng *rand.Rand, stddev float64) {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * stddev
	}
}

// At returns the element at (r, c). Bounds are the caller's responsibility;
// this accessor is for tests and small code paths, hot loops index Data.
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns the element at (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{Rows: m.Rows, Cols: m.Cols, Data: make([]float64, len(m.Data))}
	copy(out.Data, m.Data)
	return out
}

// Zero sets all elements to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Scale multiplies all elements by a.
func (m *Matrix) Scale(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// Axpy computes m += a*x elementwise. Shapes must match.
func (m *Matrix) Axpy(a float64, x *Matrix) error {
	if m.Rows != x.Rows || m.Cols != x.Cols {
		return fmt.Errorf("tensor: axpy shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, x.Rows, x.Cols)
	}
	for i := range m.Data {
		m.Data[i] += a * x.Data[i]
	}
	return nil
}

// aliases reports whether two matrices share the same backing array start
// (the full-overlap case the Into kernels must reject; partial overlap via
// hand-built subslices is the caller's responsibility).
func aliases(x, y *Matrix) bool {
	return len(x.Data) > 0 && len(y.Data) > 0 && &x.Data[0] == &y.Data[0]
}

// kBlock is the tile width of the shared dimension in the blocked matmul
// kernels: one tile of b (kBlock rows) stays cache-resident while a block
// of output rows streams over it. Within each output element the iteration
// order stays k-ascending, so blocked results are bit-identical to the
// naive kernels.
const kBlock = 128

// MatMulInto computes dst = a*b into the caller-owned dst, allocation-free
// and (for large shapes) on the package worker pool. dst must not alias a
// or b. Results are bit-identical to MatMul at every parallelism level:
// each output row is owned by exactly one goroutine and accumulates in the
// same k-ascending order as the naive kernel.
//
//elan:hotpath
func MatMulInto(dst, a, b *Matrix) error {
	if a.Cols != b.Rows {
		return fmt.Errorf("tensor: matmul %dx%d x %dx%d", a.Rows, a.Cols, b.Rows, b.Cols) //elan:vet-allow hotpathalloc — cold validation error path, never taken in the zero-alloc steady state
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		return fmt.Errorf("tensor: matmul into %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols) //elan:vet-allow hotpathalloc — cold validation error path, never taken in the zero-alloc steady state
	}
	if aliases(dst, a) || aliases(dst, b) {
		return fmt.Errorf("tensor: matmul destination aliases an operand") //elan:vet-allow hotpathalloc — cold validation error path, never taken in the zero-alloc steady state
	}
	par.run(matMulRows, dst, a, b, dst.Rows, a.Rows*a.Cols*b.Cols)
	return nil
}

// matMulRows computes rows [lo, hi) of dst = a*b: output row i multiplies
// row i of a, read with unit stride.
//
//elan:hotpath
func matMulRows(dst, a, b *Matrix, lo, hi int) {
	axpyRows(dst, b, a.Data, a.Cols, 1, a.Cols, lo, hi)
}

// MatMulATInto computes dst = aᵀ*b into the caller-owned dst (see
// MatMulInto for the aliasing and determinism contract).
//
//elan:hotpath
func MatMulATInto(dst, a, b *Matrix) error {
	if a.Rows != b.Rows {
		return fmt.Errorf("tensor: matmulAT %dx%d x %dx%d", a.Rows, a.Cols, b.Rows, b.Cols) //elan:vet-allow hotpathalloc — cold validation error path, never taken in the zero-alloc steady state
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		return fmt.Errorf("tensor: matmulAT into %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols) //elan:vet-allow hotpathalloc — cold validation error path, never taken in the zero-alloc steady state
	}
	if aliases(dst, a) || aliases(dst, b) {
		return fmt.Errorf("tensor: matmulAT destination aliases an operand") //elan:vet-allow hotpathalloc — cold validation error path, never taken in the zero-alloc steady state
	}
	par.run(matMulATRows, dst, a, b, dst.Rows, a.Rows*a.Cols*b.Cols)
	return nil
}

// matMulATRows computes rows [lo, hi) of dst = aᵀ*b: output row i
// multiplies column i of a, read with stride a.Cols. An output row takes a
// whole kBlock of k in one visit while it sits in L1 (the naive MatMulAT
// sweeps all of dst once per k), which leaves each element's k-ascending
// accumulation as it was.
//
//elan:hotpath
func matMulATRows(dst, a, b *Matrix, lo, hi int) {
	axpyRows(dst, b, a.Data, 1, a.Cols, a.Rows, lo, hi)
}

// onePassTerms is the most non-zero terms a tile may have for axpyTile to
// apply them in one pass on the packed path. One pass stores each output
// element once per tile and flags NaNs as it stores, where the streaming
// tiles load and store it once per group and then sum the row for
// maybeNaN. But it reads as many b rows at once as the tile has terms. In
// BenchmarkOnePass on a 2-vCPU Xeon VM, with b and the output in L2, one
// pass took 0.2-0.5 of the streaming time up to 4 terms, 0.87-0.95 from 8
// to 24, and 1.02-1.07 at 32 and 60. End to end the limit sits between
// two workloads: steady_compute, whose 60-sample weight-gradient tiles
// hold mostly 10 to 16 non-zeros, read 1.9 % more samples/s at 8 than at
// 16, and elastic_churn, whose 12-sample tiles are dense, read its
// scale-in pause 6 % longer at 8 (5 of 5 pairs each). Twelve keeps every
// tile of up to 12 samples in one pass.
const onePassTerms = 12

// panelElems is the size, in elements, of the part of a kBlock tile of b
// that axpyRows sweeps with a block of output rows before it moves on:
// 512 KiB, so every row after the first reads it from L2. A wider tile is
// swept in column panels of at most this many elements.
const panelElems = 64 << 10

// panelWidth is the column panel width for a tile of rows rows of a b with
// n columns: all of n when the tile fits panelElems, else the widest
// multiple of 16 columns that does (16 at the least).
func panelWidth(rows, n int) int {
	if rows*n <= panelElems {
		return n
	}
	return max(panelElems/rows&^15, 16)
}

// axpyRows computes rows [lo, hi) of dst = A*b for the kn x dst.Cols matrix
// b, where A(i, k) = ad[i*iStride+k*kStride] — a row of a for MatMulInto, a
// column of a for MatMulATInto. Per kBlock tile, column panel (panelWidth)
// and output row it gathers the tile's non-zero A(i, k) (the naive kernels
// skip zeros, which matters for 0*Inf) and applies them with axpyTile;
// every element still accumulates in k-ascending order, and the panels
// change only which elements are computed when.
//
// The register accumulator changes which operand of an addition a NaN
// arrives in, and which of two NaN payloads survives depends on that. No
// other IEEE sum depends on operand order, and NaN is sticky, so it is
// enough that a row panel which took a register tile and now holds a NaN is
// recomputed up to this tile by axpyScalar, which accumulates in the
// references' own form.
//
//elan:hotpath
func axpyRows(dst, b *Matrix, ad []float64, iStride, kStride, kn, lo, hi int) {
	n := dst.Cols
	var offs [kBlock]int
	var av [kBlock]float64
	for k0 := 0; k0 < kn || k0 == 0; k0 += kBlock { // once even for kn == 0: the rows are still cleared
		k1 := min(k0+kBlock, kn)
		pw := panelWidth(k1-k0, n)
		for j0 := 0; j0 < n; j0 += pw {
			j1 := min(j0+pw, n)
			for i := lo; i < hi; i++ {
				o := dst.Data[i*n+j0 : i*n+j1]
				ai := ad[i*iStride:]
				nz := 0
				for k := k0; k < k1; k++ {
					if v := ai[k*kStride]; v != 0 {
						offs[nz], av[nz] = k*n+j0, v
						nz++
					}
				}
				if axpyTile(o, b.Data, offs[:nz], av[:nz], k0 > 0) {
					clear(o)
					axpyScalar(o, b, j0, ai, kStride, 0, k1)
				}
			}
		}
	}
}

// axpyTile applies one tile's terms to o: o[j] += av[t] * b[offs[t]+j] for
// each t in order, with o taken as all +0 on the first tile (cont unset). It
// reports whether o must be recomputed: a register tile wrote it, and it
// may hold a NaN.
//
// With useAVX2 and at most onePassTerms terms, axpyNAVX2 keeps each output
// element in a register across all of them, stores it once and flags the
// NaNs it stores, which spares the maybeNaN pass over o. Otherwise
// the terms go four at a time as s := o[j]; s += a0*b0[j]; ...;
// s += a3*b3[j]; o[j] = s, then two, then one, packed with useAVX2, so an
// output element is loaded and stored once per group rather than once per
// term.
//
//elan:hotpath
func axpyTile(o, b []float64, offs []int, av []float64, cont bool) bool {
	nz := len(av)
	if useAVX2 && nz > 0 && nz <= onePassTerms {
		return axpyNAVX2(o, b, offs, av, cont)
	}
	axpyStream(o, b, offs, av, cont)
	return nz >= 2 && maybeNaN(o)
}

// axpyStream is axpyTile's streaming form: the terms go four at a time,
// then two, then one, and o is loaded and stored once per group.
//
//elan:hotpath
func axpyStream(o, b []float64, offs []int, av []float64, cont bool) {
	nz := len(av)
	if !cont {
		clear(o)
	}
	t := 0
	for ; t+4 <= nz; t += 4 {
		a0, a1, a2, a3 := av[t], av[t+1], av[t+2], av[t+3]
		b0 := b[offs[t]:][:len(o)]
		b1 := b[offs[t+1]:][:len(o)]
		b2 := b[offs[t+2]:][:len(o)]
		b3 := b[offs[t+3]:][:len(o)]
		if useAVX2 {
			axpy4AVX2(o, b0, b1, b2, b3, a0, a1, a2, a3)
			continue
		}
		for j := range o {
			s := o[j]
			s += a0 * b0[j]
			s += a1 * b1[j]
			s += a2 * b2[j]
			s += a3 * b3[j]
			o[j] = s
		}
	}
	if t+2 <= nz {
		a0, a1 := av[t], av[t+1]
		b0 := b[offs[t]:][:len(o)]
		b1 := b[offs[t+1]:][:len(o)]
		if useAVX2 {
			axpy2AVX2(o, b0, b1, a0, a1)
		} else {
			for j := range o {
				s := o[j]
				s += a0 * b0[j]
				s += a1 * b1[j]
				o[j] = s
			}
		}
		t += 2
	}
	if t < nz { // the odd last term, in the references' own form
		v := av[t]
		for j, bv := range b[offs[t]:][:len(o)] {
			o[j] += v * bv
		}
	}
}

// axpyScalar adds ai[k*kStride] * b[k, j0:j0+len(o)] to o for k in
// [k0, k1), skipping zeros, one k at a time in the exact form of the naive
// MatMul and MatMulAT. It recomputes axpyRows's NaN row panels.
//
//elan:hotpath
func axpyScalar(o []float64, b *Matrix, j0 int, ai []float64, kStride, k0, k1 int) {
	for k := k0; k < k1; k++ {
		v := ai[k*kStride]
		if v == 0 {
			continue
		}
		brow := b.Data[k*b.Cols+j0:][:len(o)]
		for j, bv := range brow {
			o[j] += v * bv
		}
	}
}

// maybeNaN reports whether row may hold a NaN: it sums the row, and a sum
// is NaN whenever a term is (opposite infinities also make one, a false
// positive that only costs a recompute). Four independent chains keep it at
// a fraction of a cycle per element, where a compare-and-branch per element
// cost a third of a K=3 kernel.
//
//elan:hotpath
func maybeNaN(row []float64) bool {
	var t0, t1, t2, t3 float64
	j := 0
	for ; j+4 <= len(row); j += 4 {
		r := row[j : j+4 : j+4]
		t0 += r[0]
		t1 += r[1]
		t2 += r[2]
		t3 += r[3]
	}
	for ; j < len(row); j++ {
		t0 += row[j]
	}
	t := (t0 + t1) + (t2 + t3)
	return t != t
}

// MatMulBTInto computes dst = a*bᵀ into the caller-owned dst (see
// MatMulInto for the aliasing and determinism contract).
//
//elan:hotpath
func MatMulBTInto(dst, a, b *Matrix) error {
	if a.Cols != b.Cols {
		return fmt.Errorf("tensor: matmulBT %dx%d x %dx%d", a.Rows, a.Cols, b.Rows, b.Cols) //elan:vet-allow hotpathalloc — cold validation error path, never taken in the zero-alloc steady state
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		return fmt.Errorf("tensor: matmulBT into %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows) //elan:vet-allow hotpathalloc — cold validation error path, never taken in the zero-alloc steady state
	}
	if aliases(dst, a) || aliases(dst, b) {
		return fmt.Errorf("tensor: matmulBT destination aliases an operand") //elan:vet-allow hotpathalloc — cold validation error path, never taken in the zero-alloc steady state
	}
	par.run(matMulBTRows, dst, a, b, dst.Rows, a.Rows*a.Cols*b.Rows)
	return nil
}

// matMulBTRows computes rows [lo, hi) of dst = a*bᵀ as row-dot-products,
// four output columns at a time: the four sums are independent add chains
// that overlap in the pipeline and share each load of the a row, and each
// still accumulates k-ascending from zero like the naive MatMulBT. NaN
// rows are recomputed by dotScalar for the reason given at axpyRows. With
// useAVX2, matMulBTBlocks computes the whole 4-row blocks and
// matMulBTFewRows the rows left over instead.
//
//elan:hotpath
func matMulBTRows(dst, a, b *Matrix, lo, hi int) {
	if useAVX2 {
		lo = matMulBTBlocks(dst, a, b, lo, hi)
		matMulBTFewRows(dst, a, b, lo, hi)
		return
	}
	kn := a.Cols
	for i := lo; i < hi; i++ {
		arow := a.Data[i*kn : (i+1)*kn]
		o := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		j := 0
		for ; j+4 <= len(o); j += 4 {
			b0 := b.Data[j*kn:][:len(arow)]
			b1 := b.Data[(j+1)*kn:][:len(arow)]
			b2 := b.Data[(j+2)*kn:][:len(arow)]
			b3 := b.Data[(j+3)*kn:][:len(arow)]
			var s0, s1, s2, s3 float64
			for k, v := range arow {
				s0 += v * b0[k]
				s1 += v * b1[k]
				s2 += v * b2[k]
				s3 += v * b3[k]
			}
			o[j], o[j+1], o[j+2], o[j+3] = s0, s1, s2, s3
		}
		dotScalar(o, arow, b, j)
		if j > 0 && maybeNaN(o) {
			dotScalar(o, arow, b, 0)
		}
	}
}

// matMulBTBlocks computes the whole 4-row blocks of rows [lo, hi) of
// dst = a*bᵀ on the packed path and returns the first row it left to the Go
// loop. Per block and kBlock it copies the block's four rows of a
// k-interleaved into a stack array, over which dot4x4AVX2 runs every 4x4
// output block: four accumulators, one per output column, whose lanes are
// the four rows. Each sum starts at +0 in the first kBlock and continues
// from the partial sum stored in dst in the next, k-ascending as in
// MatMulBT. The last n mod 4 columns and the NaN recompute run dotScalar.
//
//elan:hotpath
func matMulBTBlocks(dst, a, b *Matrix, lo, hi int) int {
	kn, n := a.Cols, dst.Cols
	if n < 4 {
		return lo
	}
	var pack [4 * kBlock]float64
	i := lo
	for ; i+4 <= hi; i += 4 {
		for k0 := 0; k0 < kn || k0 == 0; k0 += kBlock { // once even for kn == 0: the sums are still cleared
			k1 := min(k0+kBlock, kn)
			p := pack[:4*(k1-k0)]
			for r := 0; r < 4; r++ {
				for k, v := range a.Data[(i+r)*kn+k0 : (i+r)*kn+k1] {
					p[4*k+r] = v
				}
			}
			for j := 0; j+4 <= n; j += 4 {
				dot4x4AVX2(dst.Data[i*n+j:(i+3)*n+j+4], n, p, b.Data[j*kn+k0:(j+3)*kn+k1], kn, k0 > 0)
			}
		}
		for r := i; r < i+4; r++ {
			arow := a.Data[r*kn : (r+1)*kn]
			o := dst.Data[r*n : (r+1)*n]
			dotScalar(o, arow, b, n&^3)
			if maybeNaN(o) {
				dotScalar(o, arow, b, 0)
			}
		}
	}
	return i
}

// matMulBTFewRows computes the rows [lo, hi) of dst = a*bᵀ that
// matMulBTBlocks left, on the packed path: fewer than 4 of them, or any
// number when n < 4, which take dotScalar alone. dotRows8AVX2 computes each
// eight output columns of all the rows at once, with the columns as lanes,
// each sum from +0 and k-ascending as in MatMulBT. The last n mod 8 columns
// and the NaN recompute run dotScalar.
//
//elan:hotpath
func matMulBTFewRows(dst, a, b *Matrix, lo, hi int) {
	if lo == hi {
		return
	}
	kn, n := a.Cols, dst.Cols
	ar := a.Data[lo*kn : hi*kn]
	for j := 0; j+8 <= n; j += 8 {
		dotRows8AVX2(dst.Data[lo*n+j:(hi-1)*n+j+8], n, ar, b.Data[j*kn:(j+8)*kn], hi-lo, kn)
	}
	for r := lo; r < hi; r++ {
		arow := a.Data[r*kn : (r+1)*kn]
		o := dst.Data[r*n : (r+1)*n]
		dotScalar(o, arow, b, n&^7)
		if n >= 8 && maybeNaN(o) {
			dotScalar(o, arow, b, 0)
		}
	}
}

// dotScalar sets o[j] = arow · (row j of b) for j in [j0, len(o)), one
// serial sum at a time in the exact form of the naive MatMulBT. It finishes
// the column tiles of matMulBTRows and recomputes its NaN rows.
//
//elan:hotpath
func dotScalar(o, arow []float64, b *Matrix, j0 int) {
	for j := j0; j < len(o); j++ {
		brow := b.Data[j*len(arow) : (j+1)*len(arow)]
		var sum float64
		for k := range arow {
			sum += arow[k] * brow[k]
		}
		o[j] = sum
	}
}

// MatMul returns a*b. It is the allocating naive reference; hot paths use
// MatMulInto with a reused destination.
func MatMul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("tensor: matmul %dx%d x %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := MustNew(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// MatMulAT returns aᵀ*b (a is used transposed).
func MatMulAT(a, b *Matrix) (*Matrix, error) {
	if a.Rows != b.Rows {
		return nil, fmt.Errorf("tensor: matmulAT %dx%d x %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := MustNew(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// MatMulBT returns a*bᵀ (b is used transposed).
func MatMulBT(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Cols {
		return nil, fmt.Errorf("tensor: matmulBT %dx%d x %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := MustNew(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			var sum float64
			for k := range arow {
				sum += arow[k] * brow[k]
			}
			orow[j] = sum
		}
	}
	return out, nil
}

// AddRowVector adds vector v (1 x Cols) to every row of m, in place.
func (m *Matrix) AddRowVector(v *Matrix) error {
	if v.Rows != 1 || v.Cols != m.Cols {
		return fmt.Errorf("tensor: add row vector %dx%d to %dx%d", v.Rows, v.Cols, m.Rows, m.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := range row {
			row[j] += v.Data[j]
		}
	}
	return nil
}

// SumRows returns the 1 x Cols column sums of m.
func (m *Matrix) SumRows() *Matrix {
	out := MustNew(1, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := range row {
			out.Data[j] += row[j]
		}
	}
	return out
}

// SumRowsInto writes the 1 x Cols column sums of m into the caller-owned
// dst, allocation-free. dst must not alias m.
//
//elan:hotpath
func (m *Matrix) SumRowsInto(dst *Matrix) error {
	if dst.Rows != 1 || dst.Cols != m.Cols {
		return fmt.Errorf("tensor: sum rows of %dx%d into %dx%d", m.Rows, m.Cols, dst.Rows, dst.Cols) //elan:vet-allow hotpathalloc — cold validation error path, never taken in the zero-alloc steady state
	}
	if aliases(dst, m) {
		return fmt.Errorf("tensor: sum rows destination aliases the source") //elan:vet-allow hotpathalloc — cold validation error path, never taken in the zero-alloc steady state
	}
	for j := range dst.Data {
		dst.Data[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := range row {
			dst.Data[j] += row[j]
		}
	}
	return nil
}

// Apply maps f over all elements in place.
func (m *Matrix) Apply(f func(float64) float64) {
	for i := range m.Data {
		m.Data[i] = f(m.Data[i])
	}
}

// ReLU applies max(0, x) in place and returns a mask matrix with 1 where the
// input was positive, used by the backward pass.
func (m *Matrix) ReLU() *Matrix {
	mask := MustNew(m.Rows, m.Cols)
	for i, v := range m.Data {
		if v > 0 {
			mask.Data[i] = 1
		} else {
			m.Data[i] = 0
		}
	}
	return mask
}

// ReLUInto applies max(0, x) to m in place and writes the positive-input
// mask into the caller-owned mask (1 where the input was positive, 0
// elsewhere), allocation-free. mask must not alias m.
//
//elan:hotpath
func (m *Matrix) ReLUInto(mask *Matrix) error {
	if mask.Rows != m.Rows || mask.Cols != m.Cols {
		return fmt.Errorf("tensor: relu mask %dx%d for %dx%d", mask.Rows, mask.Cols, m.Rows, m.Cols) //elan:vet-allow hotpathalloc — cold validation error path, never taken in the zero-alloc steady state
	}
	if aliases(mask, m) {
		return fmt.Errorf("tensor: relu mask aliases the input") //elan:vet-allow hotpathalloc — cold validation error path, never taken in the zero-alloc steady state
	}
	for i, v := range m.Data {
		if v > 0 {
			mask.Data[i] = 1
		} else {
			mask.Data[i] = 0
			m.Data[i] = 0
		}
	}
	return nil
}

// Hadamard computes m *= x elementwise.
func (m *Matrix) Hadamard(x *Matrix) error {
	if m.Rows != x.Rows || m.Cols != x.Cols {
		return fmt.Errorf("tensor: hadamard shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] *= x.Data[i]
	}
	return nil
}

// SoftmaxRows applies a numerically stable softmax to each row in place.
func (m *Matrix) SoftmaxRows() {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - maxV)
			row[j] = e
			sum += e
		}
		for j := range row {
			row[j] /= sum
		}
	}
}

// Norm returns the Frobenius norm.
func (m *Matrix) Norm() float64 {
	var ss float64
	for _, v := range m.Data {
		ss += v * v
	}
	return math.Sqrt(ss)
}

// HasNaN reports whether any element is NaN or infinite.
func (m *Matrix) HasNaN() bool {
	for _, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// FlattenTo appends all elements of the matrices to dst in order and returns
// the extended slice; the inverse is UnflattenFrom.
func FlattenTo(dst []float64, ms ...*Matrix) []float64 {
	for _, m := range ms {
		dst = append(dst, m.Data...)
	}
	return dst
}

// UnflattenFrom copies values from src back into the matrices in order and
// returns the number of values consumed.
func UnflattenFrom(src []float64, ms ...*Matrix) (int, error) {
	off := 0
	for _, m := range ms {
		n := len(m.Data)
		if off+n > len(src) {
			return off, fmt.Errorf("tensor: unflatten needs %d values, have %d", off+n, len(src))
		}
		copy(m.Data, src[off:off+n])
		off += n
	}
	return off, nil
}

// NumElements returns the total element count of the matrices.
func NumElements(ms ...*Matrix) int {
	n := 0
	for _, m := range ms {
		n += len(m.Data)
	}
	return n
}
