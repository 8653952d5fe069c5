package engine

import (
	"math"
	"testing"

	"github.com/elan-sys/elan/internal/data"
	"github.com/elan-sys/elan/internal/tensor"
)

func trainBatch(t *testing.T) (*tensor.Matrix, []int) {
	t.Helper()
	d, err := data.GenGaussianMixture(4, 256, 4, 3)
	if err != nil {
		t.Fatalf("GenGaussianMixture: %v", err)
	}
	x, y, err := d.Batch(0, 256)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	return x, y
}

func TestStaticEngineTrains(t *testing.T) {
	e, err := NewStatic(1, []int{4, 16, 3}, 0.1, 0.9)
	if err != nil {
		t.Fatalf("NewStatic: %v", err)
	}
	if e.Kind() != "static" {
		t.Fatalf("Kind = %q", e.Kind())
	}
	x, y := trainBatch(t)
	var first, last float64
	for i := 0; i < 60; i++ {
		loss, err := e.Step(x, y, 0.1)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if i == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first/2 {
		t.Fatalf("loss did not halve: %v -> %v", first, last)
	}
	_, acc, err := e.Eval(x, y)
	if err != nil || acc < 0.7 {
		t.Fatalf("Eval acc = %v, %v", acc, err)
	}
}

func TestStaticEngineShapeEnforcement(t *testing.T) {
	e, err := NewStatic(1, []int{4, 8, 3}, 0.1, 0.9)
	if err != nil {
		t.Fatalf("NewStatic: %v", err)
	}
	bad := tensor.MustNew(2, 5) // wrong feature count
	if _, err := e.Step(bad, []int{0, 1}, 0.1); err == nil {
		t.Fatal("static engine accepted mismatched shape")
	}
	if _, err := NewStatic(1, []int{4}, 0.1, 0.9); err == nil {
		t.Fatal("one-layer network accepted")
	}
}

func TestDynamicEngineBranches(t *testing.T) {
	e, err := NewDynamic(2, [][]int{{4, 16, 3}, {4, 8, 8, 3}}, 0.1, 0.9)
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	if e.Kind() != "dynamic" {
		t.Fatalf("Kind = %q", e.Kind())
	}
	// Step-dependent structure: alternate branches.
	used := map[int]int{}
	e.Select = func(step int) int {
		b := step % 2
		used[b]++
		return b
	}
	x, y := trainBatch(t)
	for i := 0; i < 20; i++ {
		if _, err := e.Step(x, y, 0.05); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	if used[0] == 0 || used[1] == 0 {
		t.Fatalf("branches not both used: %v", used)
	}
	// Out-of-range selector falls back to branch 0 instead of crashing.
	e.Select = func(step int) int { return 99 }
	if _, err := e.Step(x, y, 0.05); err != nil {
		t.Fatalf("Step with bad selector: %v", err)
	}
}

func TestDynamicEngineValidation(t *testing.T) {
	if _, err := NewDynamic(1, nil, 0.1, 0.9); err == nil {
		t.Fatal("no branches accepted")
	}
	if _, err := NewDynamic(1, [][]int{{4}}, 0.1, 0.9); err == nil {
		t.Fatal("shallow branch accepted")
	}
}

// TestStateRoundTripBothEngines pins the one framework contract on both
// engines, the dynamic one with two branches: Install of another engine's
// State makes the two states bitwise equal and the next Steps return the
// same losses; State is the live state, so a Step changes it with no copy;
// and Install of a wrong length is an error that changes nothing.
func TestStateRoundTripBothEngines(t *testing.T) {
	x, y := trainBatch(t)
	build := map[string]func(seed int64) (Engine, error){
		"static": func(seed int64) (Engine, error) {
			return NewStatic(seed, []int{4, 16, 3}, 0.1, 0.9)
		},
		"dynamic": func(seed int64) (Engine, error) {
			e, err := NewDynamic(seed, [][]int{{4, 16, 3}, {4, 8, 8, 3}}, 0.1, 0.9)
			if err == nil {
				e.Select = func(step int) int { return step % 2 }
			}
			return e, err
		},
	}
	for _, kind := range []string{"static", "dynamic"} {
		src, err := build[kind](5)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		dst, err := build[kind](77)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for i := 0; i < 7; i++ {
			if _, err := src.Step(x, y, 0.05); err != nil {
				t.Fatalf("%s Step: %v", kind, err)
			}
		}
		// Both engines at the same step count, so a dynamic pair picks the
		// same branch next.
		for i := 0; i < 7; i++ {
			if _, err := dst.Step(x, y, 0.05); err != nil {
				t.Fatalf("%s Step: %v", kind, err)
			}
		}

		// State aliases the live state: a Step shows in a slice taken
		// before it.
		live := src.State()
		before := append([]float64(nil), live...)
		if _, err := src.Step(x, y, 0.05); err != nil {
			t.Fatalf("%s Step: %v", kind, err)
		}
		if bitsEqual(live, before) {
			t.Fatalf("%s: a Step left the State slice unchanged", kind)
		}
		if &live[0] != &src.State()[0] {
			t.Fatalf("%s: State returned a different slice after a Step", kind)
		}
		if _, err := dst.Step(x, y, 0.05); err != nil {
			t.Fatalf("%s Step: %v", kind, err)
		}

		if err := dst.Install(src.State()); err != nil {
			t.Fatalf("%s Install: %v", kind, err)
		}
		if !bitsEqual(dst.State(), src.State()) {
			t.Fatalf("%s: states differ after Install", kind)
		}
		for i := 0; i < 2; i++ {
			ls, err := src.Step(x, y, 0.05)
			if err != nil {
				t.Fatalf("%s Step: %v", kind, err)
			}
			ld, err := dst.Step(x, y, 0.05)
			if err != nil {
				t.Fatalf("%s Step: %v", kind, err)
			}
			if math.Float64bits(ls) != math.Float64bits(ld) {
				t.Fatalf("%s step %d after Install: loss %v vs %v", kind, i, ld, ls)
			}
		}

		// A wrong length is refused and leaves every bit in place.
		kept := append([]float64(nil), dst.State()...)
		n := len(kept)
		for _, length := range []int{0, 1, n - 1, n + 1} {
			bad := make([]float64, length)
			for i := range bad {
				bad[i] = 7
			}
			if err := dst.Install(bad); err == nil {
				t.Fatalf("%s: Install of %d values for %d accepted", kind, length, n)
			}
			if !bitsEqual(dst.State(), kept) {
				t.Fatalf("%s: refused Install of %d values changed the state", kind, length)
			}
		}
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
