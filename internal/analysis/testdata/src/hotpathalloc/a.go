// Package hotpathalloc exercises the hot-path allocation analyzer: only
// functions annotated //elan:hotpath are checked, and every
// alloc-inducing construct inside one is reported precisely.
package hotpathalloc

import (
	"errors"
	"fmt"
)

type point struct{ x, y float64 }

type state struct {
	buf  []float64
	name string
}

func resident() {}

// hotAllocs demonstrates each flagged construct.
//
//elan:hotpath
func hotAllocs(dst []float64, s *state, n int) {
	scratch := make([]float64, n) // want `hot path allocates: make`
	_ = scratch
	p := new(point) // want `hot path allocates: new`
	_ = p
	q := &point{1, 2} // want `hot path allocates: &composite literal`
	_ = q
	xs := []int{1, 2, 3} // want `hot path allocates: slice literal`
	_ = xs
	m := map[string]int{} // want `hot path allocates: map literal`
	_ = m
	var local []float64
	local = append(local, 1) // want `hot path allocates: append to a non-parameter slice`
	_ = local
	f := func() {} // want `hot path allocates: function literal`
	_ = f
	go resident()            // want `hot path allocates: go statement`
	_ = fmt.Sprintf("%d", n) // want `hot path allocates: fmt\.Sprintf`
	msg := "hot: " + s.name  // want `hot path allocates: string concatenation`
	_ = msg
	bs := []byte(s.name) // want `hot path allocates: slice conversion`
	_ = bs
	str := string(bs) // want `hot path allocates: string\(\.\.\.\) conversion`
	_ = str
	_ = any(n) // want `hot path allocates: any\(\.\.\.\) boxes`
}

// hotClean is the steady-state shape: index writes, value literals,
// appends into caller-owned storage, fixed-size arrays.
//
//elan:hotpath
func hotClean(dst []float64, s *state, v float64) {
	var acc [4]float64
	for i := range dst {
		dst[i] = v + acc[i%4]
	}
	pt := point{v, v} // value literal: stays on the stack
	dst[0] = pt.x
	s.buf = append(s.buf, v) // caller-owned, pre-sized storage
}

// coldUnannotated may allocate freely.
func coldUnannotated(n int) []float64 {
	out := make([]float64, n)
	return out
}

// hotWaived: a priming path inside a hot function, justified.
//
//elan:hotpath
func hotWaived(s *state, n int) {
	if cap(s.buf) < n {
		s.buf = make([]float64, n) //elan:vet-allow hotpathalloc — testdata: demonstrates the waiver pragma
	}
	for i := 0; i < n; i++ {
		s.buf[i] = 0
	}
}

// hotErrorExits: a return whose last operand is fmt.Errorf or errors.New
// leaves with a fresh error and is cold; nothing in it is reported.
//
//elan:hotpath
func hotErrorExits(s *state, n int) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("negative size %d", n)
	}
	if n == 0 {
		return nil, errors.New("empty")
	}
	if s == nil {
		return nil, fmt.Errorf("no state for %d: %w", n, errors.New("nil"))
	}
	return s.buf[:n], nil
}

// validate returns a bare error: its exit is cold.
//
//elan:hotpath
func validate(n int) error {
	if n < 0 {
		return fmt.Errorf("negative size %d", n)
	}
	return nil
}

type result struct{ err error }

// hotNotErrorExits: every other return stays hot.
//
//elan:hotpath
func hotNotErrorExits(n int, err error) ([]float64, error) {
	buf := make([]float64, n) // want `hot path allocates: make`
	_ = buf
	if err != nil {
		return make([]float64, n), err // want `hot path allocates: make`
	}
	return make([]float64, n), nil // want `hot path allocates: make`
}

// hotMessageBuiltEarly: the message is formatted before the check, so it
// allocates on the success path too.
//
//elan:hotpath
func hotMessageBuiltEarly(n int) error {
	msg := fmt.Sprintf("size %d", n) // want `hot path allocates: fmt\.Sprintf`
	if n < 0 {
		return errors.New(msg)
	}
	return nil
}

// hotResultError: the error rides inside a value that is not an error.
//
//elan:hotpath
func hotResultError(n int) result {
	if n < 0 {
		return result{err: fmt.Errorf("negative size %d", n)} // want `hot path allocates: fmt\.Errorf`
	}
	return result{}
}

// hotErrorsNew: errors.New off an error exit builds a fresh error on
// every call.
//
//elan:hotpath
func hotErrorsNew(n int) ([]float64, error) {
	e := errors.New("built on every call") // want `hot path allocates: errors\.New`
	if n < 0 {
		return nil, errors.New("negative size")
	}
	return nil, e
}
