package collective

import "fmt"

// ReferenceAllReduce computes the allreduce of vecs (vecs[r] is rank r's
// input) sequentially, in the exact accumulation order a group of
// len(vecs) ranks produces. It is the executable specification the
// differential tests hold the exchange to, bit for bit: element e falls in
// chunk c of the n-way split, and its sum is the left fold of the ranks'
// values in ascending rank order starting at rank c (the fold chunk c's
// owner runs).
//
// The order depends on the rank count alone, never on where the ranks
// are placed. IEEE-754 addition is commutative (the exchange adds the same
// two operands the reference adds, though the compiler may swap them), so
// equality is exact even for non-associative inputs — with the one caveat
// that when both operands are NaNs with different payloads the hardware's
// payload choice is operand-order dependent; the differential tests
// therefore use a single canonical NaN payload.
func ReferenceAllReduce(vecs [][]float64) ([]float64, error) {
	n := len(vecs)
	if n == 0 {
		return nil, fmt.Errorf("collective: reference on no ranks")
	}
	L := len(vecs[0])
	for r, v := range vecs {
		if len(v) != L {
			return nil, fmt.Errorf("collective: reference rank %d vector length %d, want %d", r, len(v), L)
		}
	}
	out := make([]float64, L)
	for c := 0; c < n; c++ {
		lo, hi := Chunk(L, n, c)
		for e := lo; e < hi; e++ {
			acc := vecs[c][e]
			for s := 1; s < n; s++ {
				acc += vecs[(c+s)%n][e]
			}
			out[e] = acc
		}
	}
	return out, nil
}
