//go:build !amd64

package tensor

// useAVX2 is false off amd64: the kernels always run their Go loops, and
// the functions below are never called.
var useAVX2 = false

func hasAVX2() bool { return false }

func axpy4AVX2(o, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	panic("tensor: AVX2 kernel called off amd64")
}

func axpy2AVX2(o, b0, b1 []float64, a0, a1 float64) {
	panic("tensor: AVX2 kernel called off amd64")
}

func dot4x4AVX2(o []float64, ldo int, pack, b []float64, ldb int, cont bool) {
	panic("tensor: AVX2 kernel called off amd64")
}
