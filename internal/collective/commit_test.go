package collective

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/telemetry"
)

// commitRanks builds one Commit per rank of an n-rank group over state
// arenas of length m, filled with values no exchange produces. Rank r's
// Apply writes the chunk it owns of its vector vecs[r] into every rank's
// state, as a step's owners write the parameters they updated, and counts
// its calls in applied.
func commitRanks(n, m int, vecs [][]float64, applied *atomic.Int64) ([]*Commit, [][]float64) {
	cs, orig := make([]*Commit, n), make([][]float64, n)
	for r := range cs {
		state := make([]float64, m)
		for i := range state {
			state[i] = float64(-1000*(r+1) - i)
		}
		orig[r] = append([]float64(nil), state...)
		cs[r] = &Commit{State: state, OK: true, Apply: func(states [][]float64) {
			applied.Add(1)
			lo, hi := Chunk(len(vecs[r]), len(states), r)
			for _, s := range states {
				copy(s[lo:hi], vecs[r][lo:hi])
			}
		}}
	}
	return cs, orig
}

// meanInputs returns n vectors of length m and their reference mean.
func meanInputs(t *testing.T, n, m int) (vecs [][]float64, mean []float64) {
	t.Helper()
	vecs = make([][]float64, n)
	for r := range vecs {
		vecs[r] = make([]float64, m)
		for i := range vecs[r] {
			vecs[r][i] = float64((r*37+i*11)%23) * 0.1
		}
	}
	sum, err := ReferenceAllReduce(vecs)
	if err != nil {
		t.Fatal(err)
	}
	mean = make([]float64, m)
	for i, v := range sum {
		mean[i] = v * (1 / float64(n))
	}
	return vecs, mean
}

// TestReduceScatterKeepsTheRest: after ReduceScatterMeanBucket each rank's
// own chunk holds the reference mean, bit for bit, and every other element
// is its input, also where a chunk is empty.
func TestReduceScatterKeepsTheRest(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		for _, m := range []int{0, 1, 5, 17, 100} {
			vecs, mean := meanInputs(t, n, m)
			in := make([][]float64, n)
			for r := range vecs {
				in[r] = append([]float64(nil), vecs[r]...)
			}
			g, err := NewGroup(n)
			if err != nil {
				t.Fatal(err)
			}
			if err := runCollective(n, func(r int) error {
				return g.ReduceScatterMeanBucket(telemetry.TraceContext{}, r, vecs[r], 0)
			}); err != nil {
				t.Fatalf("n=%d m=%d: %v", n, m, err)
			}
			g.Close()
			for r := range vecs {
				lo, hi := Chunk(m, n, r)
				want := append(append(append([]float64(nil), in[r][:lo]...), mean[lo:hi]...), in[r][hi:]...)
				expectBits(t, fmt.Sprintf("n=%d m=%d", n, m), r, vecs[r], want)
			}
		}
	}
}

// TestCommitAppliesOnEveryRank: a commit whose owners each write their mean
// chunk into every state ends with every state equal to the reference mean,
// every Apply run once, and nil on every rank.
func TestCommitAppliesOnEveryRank(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		for _, m := range []int{1, 5, 100} {
			vecs, mean := meanInputs(t, n, m)
			var applied atomic.Int64
			cs, _ := commitRanks(n, m, vecs, &applied)
			g, err := NewGroup(n)
			if err != nil {
				t.Fatal(err)
			}
			if err := runCollective(n, func(r int) error {
				return g.ReduceScatterMeanCommit(telemetry.TraceContext{}, r, vecs[r], 0, cs[r])
			}); err != nil {
				t.Fatalf("n=%d m=%d: %v", n, m, err)
			}
			g.Close()
			if got := applied.Load(); got != int64(n) {
				t.Fatalf("n=%d m=%d: %d Apply calls, want %d", n, m, got, n)
			}
			for r, c := range cs {
				expectBits(t, fmt.Sprintf("n=%d m=%d", n, m), r, c.State, mean)
			}
		}
	}
}

// TestCommitAbortedByOneRank: one rank publishing OK == false makes every
// rank return ErrAborted with no Apply run and every state as it was; the
// group stays usable.
func TestCommitAbortedByOneRank(t *testing.T) {
	const n, m = 4, 9
	for quitter := 0; quitter < n; quitter++ {
		vecs, _ := meanInputs(t, n, m)
		var applied atomic.Int64
		cs, orig := commitRanks(n, m, vecs, &applied)
		cs[quitter].OK = false
		g, err := NewGroup(n)
		if err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, n)
		for r := 0; r < n; r++ {
			go func() { errs <- g.ReduceScatterMeanCommit(telemetry.TraceContext{}, r, vecs[r], 0, cs[r]) }()
		}
		for _, err := range collect(t, errs, n) {
			if !errors.Is(err, ErrAborted) {
				t.Fatalf("quitter %d: a rank returned %v, want ErrAborted", quitter, err)
			}
		}
		if got := applied.Load(); got != 0 {
			t.Fatalf("quitter %d: %d Apply calls after an abort", quitter, got)
		}
		for r, c := range cs {
			expectBits(t, "aborted", r, c.State, orig[r])
		}
		cs[quitter].OK = true
		if err := runCollective(n, func(r int) error {
			return g.ReduceScatterMeanCommit(telemetry.TraceContext{}, r, vecs[r], 0, cs[r])
		}); err != nil {
			t.Fatalf("quitter %d: the next commit failed: %v", quitter, err)
		}
		g.Close()
	}
}

// TestCommitCallsMustAgree: ranks that disagree on whether an exchange
// commits, or publish states of different lengths, all fail before any
// writes, with no Apply run; the group stays usable.
func TestCommitCallsMustAgree(t *testing.T) {
	const n, m = 3, 7
	for _, tc := range []struct {
		name  string
		plain int // rank that calls ReduceScatterMeanBucket instead, or -1
		short int // rank whose state is one shorter, or -1
	}{
		{"one rank plain", 1, -1},
		{"one short state", -1, 2},
	} {
		vecs, _ := meanInputs(t, n, m)
		in := make([][]float64, n)
		for r := range vecs {
			in[r] = append([]float64(nil), vecs[r]...)
		}
		var applied atomic.Int64
		cs, orig := commitRanks(n, m, vecs, &applied)
		if tc.short >= 0 {
			cs[tc.short].State = cs[tc.short].State[:m-1]
			orig[tc.short] = orig[tc.short][:m-1]
		}
		g, err := NewGroup(n)
		if err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, n)
		for r := 0; r < n; r++ {
			go func() {
				if r == tc.plain {
					errs <- g.ReduceScatterMeanBucket(telemetry.TraceContext{}, r, vecs[r], 0)
					return
				}
				errs <- g.ReduceScatterMeanCommit(telemetry.TraceContext{}, r, vecs[r], 0, cs[r])
			}()
		}
		for _, err := range collect(t, errs, n) {
			if err == nil || errors.Is(err, ErrClosed) || errors.Is(err, ErrAborted) {
				t.Fatalf("%s: a rank returned %v, want a disagreement error", tc.name, err)
			}
		}
		if got := applied.Load(); got != 0 {
			t.Fatalf("%s: %d Apply calls", tc.name, got)
		}
		for r := range cs {
			expectBits(t, tc.name+" state", r, cs[r].State, orig[r])
			expectBits(t, tc.name+" vector", r, vecs[r], in[r])
		}
		if err := runCollective(n, func(r int) error { return g.AllReduce(r, vecs[r]) }); err != nil {
			t.Fatalf("%s: the next call failed: %v", tc.name, err)
		}
		g.Close()
	}
}

// TestCommitCloseAtEntry: a Close while ranks wait at a commit's entry
// leaves every state as it was: every rank returns ErrClosed and no Apply
// runs.
func TestCommitCloseAtEntry(t *testing.T) {
	const n, m = 4, 10
	vecs, _ := meanInputs(t, n, m)
	var applied atomic.Int64
	cs, orig := commitRanks(n, m, vecs, &applied)
	g, err := NewGroup(n)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, n)
	for r := 0; r < n-1; r++ {
		go func() { errs <- g.ReduceScatterMeanCommit(telemetry.TraceContext{}, r, vecs[r], 0, cs[r]) }()
	}
	parked(t, g, n-1)
	g.Close()
	for _, err := range collect(t, errs, n-1) {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("rank returned %v, want ErrClosed", err)
		}
	}
	if err := g.ReduceScatterMeanCommit(telemetry.TraceContext{}, n-1, vecs[n-1], 0, cs[n-1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("a commit after Close returned %v, want ErrClosed", err)
	}
	if got := applied.Load(); got != 0 {
		t.Fatalf("%d Apply calls after a close at entry", got)
	}
	for r, c := range cs {
		expectBits(t, "closed at entry", r, c.State, orig[r])
	}
}

// TestCommitCloseInside: a Close after every rank is past a commit's entry
// does not undo it. The ranks that applied wait at exit for the last rank,
// which the test steps through by hand without applying, and then return
// nil; every state holds what the appliers wrote.
func TestCommitCloseInside(t *testing.T) {
	const n, m = 4, 8
	vecs, mean := meanInputs(t, n, m)
	var applied atomic.Int64
	cs, orig := commitRanks(n, m, vecs, &applied)
	g, err := NewGroup(n)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, n)
	for r := 0; r < n-1; r++ {
		go func() { errs <- g.ReduceScatterMeanCommit(telemetry.TraceContext{}, r, vecs[r], 0, cs[r]) }()
	}
	last := n - 1
	g.vecs[last], g.commits[last], g.states[last] = vecs[last], cs[last], cs[last].State
	if err := g.bar.wait(true); err != nil {
		t.Fatal(err)
	}
	parked(t, g, n-1)
	g.Close()
	select {
	case err := <-errs:
		t.Fatalf("a rank returned %v while the last rank was still inside the commit", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := g.bar.wait(false); !errors.Is(err, ErrClosed) {
		t.Fatalf("the last rank got %v at exit, want ErrClosed", err)
	}
	for _, err := range collect(t, errs, n-1) {
		if err != nil {
			t.Fatalf("a rank past the commit's entry returned %v, want nil", err)
		}
	}
	if got := applied.Load(); got != n-1 {
		t.Fatalf("%d Apply calls, want %d", got, n-1)
	}
	// Every chunk but the last rank's holds its owner's mean; the last
	// rank's chunk was never written.
	lo, hi := Chunk(m, n, last)
	for r, c := range cs {
		want := append(append(append([]float64(nil), mean[:lo]...), orig[r][lo:hi]...), mean[hi:]...)
		expectBits(t, "closed inside", r, c.State, want)
	}
}
