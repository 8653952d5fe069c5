package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 3); err == nil {
		t.Fatal("zero rows accepted")
	}
	if _, err := New(3, -1); err == nil {
		t.Fatal("negative cols accepted")
	}
	m, err := New(2, 3)
	if err != nil || m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("New = %+v, %v", m, err)
	}
}

func TestFromSlice(t *testing.T) {
	if _, err := FromSlice(2, 2, []float64{1, 2, 3}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	m, err := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("FromSlice: %v", err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v", m.At(1, 0))
	}
}

func TestMatMulKnown(t *testing.T) {
	a, _ := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b, _ := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatalf("MatMul: %v", err)
	}
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if !almostEq(c.Data[i], w) {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
	if _, err := MatMul(a, a); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestMatMulATMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := MustNew(4, 3)
	b := MustNew(4, 5)
	a.Randn(rng, 1)
	b.Randn(rng, 1)
	got, err := MatMulAT(a, b)
	if err != nil {
		t.Fatalf("MatMulAT: %v", err)
	}
	// Explicit transpose.
	at := MustNew(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want, _ := MatMul(at, b)
	for i := range want.Data {
		if !almostEq(got.Data[i], want.Data[i]) {
			t.Fatalf("MatMulAT mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
	if _, err := MatMulAT(a, MustNew(3, 2)); err == nil {
		t.Fatal("MatMulAT shape mismatch accepted")
	}
}

func TestMatMulBTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := MustNew(4, 3)
	b := MustNew(5, 3)
	a.Randn(rng, 1)
	b.Randn(rng, 1)
	got, err := MatMulBT(a, b)
	if err != nil {
		t.Fatalf("MatMulBT: %v", err)
	}
	bt := MustNew(3, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	want, _ := MatMul(a, bt)
	for i := range want.Data {
		if !almostEq(got.Data[i], want.Data[i]) {
			t.Fatalf("MatMulBT mismatch at %d", i)
		}
	}
	if _, err := MatMulBT(a, MustNew(5, 4)); err == nil {
		t.Fatal("MatMulBT shape mismatch accepted")
	}
}

func TestAxpyAndScale(t *testing.T) {
	m, _ := FromSlice(1, 3, []float64{1, 2, 3})
	x, _ := FromSlice(1, 3, []float64{10, 20, 30})
	if err := m.Axpy(0.5, x); err != nil {
		t.Fatalf("Axpy: %v", err)
	}
	for i, w := range []float64{6, 12, 18} {
		if !almostEq(m.Data[i], w) {
			t.Fatalf("Axpy = %v", m.Data)
		}
	}
	m.Scale(2)
	if !almostEq(m.Data[0], 12) {
		t.Fatalf("Scale = %v", m.Data)
	}
	if err := m.Axpy(1, MustNew(2, 2)); err == nil {
		t.Fatal("Axpy shape mismatch accepted")
	}
}

func TestAddRowVectorAndSumRows(t *testing.T) {
	m, _ := FromSlice(2, 2, []float64{1, 2, 3, 4})
	v, _ := FromSlice(1, 2, []float64{10, 20})
	if err := m.AddRowVector(v); err != nil {
		t.Fatalf("AddRowVector: %v", err)
	}
	want := []float64{11, 22, 13, 24}
	for i, w := range want {
		if !almostEq(m.Data[i], w) {
			t.Fatalf("AddRowVector = %v", m.Data)
		}
	}
	s := m.SumRows()
	if !almostEq(s.Data[0], 24) || !almostEq(s.Data[1], 46) {
		t.Fatalf("SumRows = %v", s.Data)
	}
	if err := m.AddRowVector(MustNew(1, 3)); err == nil {
		t.Fatal("AddRowVector shape mismatch accepted")
	}
}

func TestReLUAndMask(t *testing.T) {
	m, _ := FromSlice(1, 4, []float64{-1, 2, 0, 3})
	mask := m.ReLU()
	wantVals := []float64{0, 2, 0, 3}
	wantMask := []float64{0, 1, 0, 1}
	for i := range wantVals {
		if !almostEq(m.Data[i], wantVals[i]) || !almostEq(mask.Data[i], wantMask[i]) {
			t.Fatalf("ReLU = %v mask %v", m.Data, mask.Data)
		}
	}
}

func TestHadamard(t *testing.T) {
	m, _ := FromSlice(1, 3, []float64{1, 2, 3})
	x, _ := FromSlice(1, 3, []float64{2, 0, -1})
	if err := m.Hadamard(x); err != nil {
		t.Fatalf("Hadamard: %v", err)
	}
	for i, w := range []float64{2, 0, -3} {
		if !almostEq(m.Data[i], w) {
			t.Fatalf("Hadamard = %v", m.Data)
		}
	}
	if err := m.Hadamard(MustNew(2, 2)); err == nil {
		t.Fatal("Hadamard shape mismatch accepted")
	}
}

func TestSoftmaxRows(t *testing.T) {
	m, _ := FromSlice(2, 3, []float64{1, 2, 3, 1000, 1000, 1000})
	m.SoftmaxRows()
	// Rows sum to 1.
	for i := 0; i < 2; i++ {
		var sum float64
		for j := 0; j < 3; j++ {
			sum += m.At(i, j)
		}
		if !almostEq(sum, 1) {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	// Second row: stable at large magnitudes, uniform.
	if !almostEq(m.At(1, 0), 1.0/3.0) {
		t.Fatalf("large-value softmax = %v", m.At(1, 0))
	}
	// First row monotone.
	if !(m.At(0, 0) < m.At(0, 1) && m.At(0, 1) < m.At(0, 2)) {
		t.Fatal("softmax not monotone")
	}
}

func TestSoftmaxRowsProperty(t *testing.T) {
	prop := func(vals [6]float64) bool {
		data := make([]float64, 6)
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			data[i] = math.Mod(v, 50)
		}
		m, err := FromSlice(2, 3, data)
		if err != nil {
			return false
		}
		m.SoftmaxRows()
		for i := 0; i < 2; i++ {
			var sum float64
			for j := 0; j < 3; j++ {
				p := m.At(i, j)
				if p < 0 || p > 1 {
					return false
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := MustNew(2, 3)
	b := MustNew(4, 1)
	a.Randn(rng, 1)
	b.Randn(rng, 1)
	flat := FlattenTo(nil, a, b)
	if len(flat) != 10 {
		t.Fatalf("flat len = %d", len(flat))
	}
	// Views over the flat vector are the matrices again.
	a2, err := FromSlice(2, 3, flat[:6])
	if err != nil {
		t.Fatalf("FromSlice: %v", err)
	}
	b2, err := FromSlice(4, 1, flat[6:])
	if err != nil {
		t.Fatalf("FromSlice: %v", err)
	}
	for i := range a.Data {
		if a.Data[i] != a2.Data[i] {
			t.Fatal("round trip mismatch in a")
		}
	}
	for i := range b.Data {
		if b.Data[i] != b2.Data[i] {
			t.Fatal("round trip mismatch in b")
		}
	}
	if _, err := FromSlice(2, 3, flat[:5]); err == nil {
		t.Fatal("short view accepted")
	}
	if got := NumElements(a, b); got != 10 {
		t.Fatalf("NumElements = %d", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	m, _ := FromSlice(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestNormZeroHasNaN(t *testing.T) {
	m, _ := FromSlice(1, 2, []float64{3, 4})
	if m.HasNaN() {
		t.Fatal("HasNaN false positive")
	}
	m.Data[0] = math.NaN()
	if !m.HasNaN() {
		t.Fatal("HasNaN missed NaN")
	}
	m.Data[0] = math.Inf(1)
	if !m.HasNaN() {
		t.Fatal("HasNaN missed Inf")
	}
	m.Zero()
	if m.Data[0] != 0 || m.Data[1] != 0 {
		t.Fatal("Zero did not zero")
	}
}
