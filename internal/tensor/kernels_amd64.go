package tensor

import "github.com/elan-sys/elan/internal/racecheck"

// useAVX2 selects the packed AVX2 register tiles of the matmul kernels. It
// is set once at init from CPUID and XGETBV; without AVX2, or without the OS
// saving YMM state, the kernels run their Go loops. A race-detector build
// runs the Go loops too: the detector does not see the assembly's loads and
// stores, and the -race runs of the packages above this one exist to check
// who writes the matrices those kernels write. Only tests flip it, to run
// both paths on one host.
var useAVX2 = !racecheck.Enabled && hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state.
func hasAVX2() bool

// axpy4AVX2 computes, for every j, s := o[j]; s += a0*b0[j]; s += a1*b1[j];
// s += a2*b2[j]; s += a3*b3[j]; o[j] = s, eight, then four elements at a
// time and then one. Each b row must hold at least len(o) elements.
//
//go:noescape
func axpy4AVX2(o, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)

// axpy2AVX2 is axpy4AVX2 with two terms.
//
//go:noescape
func axpy2AVX2(o, b0, b1 []float64, a0, a1 float64)

// dot4x4AVX2 accumulates a 4x4 block of a*bᵀ over one kBlock: for r and c
// in [0, 4), o[r*ldo+c] continues its k-ascending sum with
// pack[4*k+r] * b[c*ldb+k] for k in [0, len(pack)/4). pack holds the four
// rows of a k-interleaved. The sums start at +0, or at the partial sums
// stored in o when cont is set.
//
//go:noescape
func dot4x4AVX2(o []float64, ldo int, pack, b []float64, ldb int, cont bool)

// axpyNAVX2 applies a whole tile's terms to o in one pass: for every j,
// s := +0 (o[j] when cont is set); s += av[t]*b[offs[t]+j] for t in
// [0, len(av)); o[j] = s. It keeps thirty-two, then four elements, then
// one in registers across all the terms, stores each once, and reports
// whether it stored a NaN. offs and av must have the same length, at least
// 1, and each b[offs[t]:] must hold at least len(o) elements.
//
//go:noescape
func axpyNAVX2(o, b []float64, offs []int, av []float64, cont bool) (nan bool)

// dotRows8AVX2 sets o[r*ldo+c] = sum over k of a[r*kn+k] * b[c*kn+k] for
// rows r in [0, rows), rows in [1, 3], and columns c in [0, 8). Each sum
// starts at +0 and runs k-ascending in its own lane: per four k, the eight
// b rows are transposed in registers so the lanes are output columns, and
// each row's a[r*kn+k] is broadcast, multiplied and added.
//
//go:noescape
func dotRows8AVX2(o []float64, ldo int, a, b []float64, rows, kn int)
