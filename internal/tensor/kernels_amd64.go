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
