package collective

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// parked waits until want ranks wait at g's barrier, failing after a while.
func parked(t *testing.T, g *Group, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		g.bar.mu.Lock()
		got := g.bar.arrived
		g.bar.mu.Unlock()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d ranks at the barrier, want %d", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// collect receives one error per rank from errs, failing instead of hanging.
func collect(t *testing.T, errs <-chan error, ranks int) []error {
	t.Helper()
	out := make([]error, 0, ranks)
	timeout := time.After(10 * time.Second)
	for len(out) < ranks {
		select {
		case err := <-errs:
			out = append(out, err)
		case <-timeout:
			t.Fatalf("%d of %d ranks returned; the rest hang", len(out), ranks)
		}
	}
	return out
}

// TestEveryRankReadsItsResultAtOnce: each rank checks its own result on its
// own goroutine the moment its call returns, and refills its vector for the
// next call straight away — 50 calls, sums and means, inputs and lengths
// changing every time. A rank must never see a peer still writing its
// chunks: under -race, an exchange without its exit barrier fails here.
func TestEveryRankReadsItsResultAtOnce(t *testing.T) {
	for _, n := range []int{2, 3, 8} {
		g, err := NewGroup(n)
		if err != nil {
			t.Fatal(err)
		}
		// Small integers sum exactly in any order, so every rank can
		// compute the expected result on its own.
		val := func(iter, r, i int) float64 { return float64((iter*31+r*7+i)%97 - 48) }
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var vec []float64
				for iter := 0; iter < 50; iter++ {
					length := 40 + iter%13
					vec = vec[:0]
					for i := 0; i < length; i++ {
						vec = append(vec, val(iter, r, i))
					}
					mean := iter%2 == 1
					var err error
					if mean {
						err = g.AllReduceMean(r, vec)
					} else {
						err = g.AllReduce(r, vec)
					}
					if err != nil {
						t.Errorf("n=%d iter %d rank %d: %v", n, iter, r, err)
						g.Close()
						return
					}
					for i, got := range vec {
						want := 0.0
						for p := 0; p < n; p++ {
							want += val(iter, p, i)
						}
						if mean {
							want *= 1 / float64(n)
						}
						if got != want {
							t.Errorf("n=%d iter %d rank %d elem %d: %v, want %v", n, iter, r, i, got, want)
							g.Close()
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		g.Close()
	}
}

// TestCloseAtEntry: ranks waiting for a peer that never comes all return
// ErrClosed on Close, with their vectors untouched, and a rank that calls
// afterwards returns ErrClosed at once.
func TestCloseAtEntry(t *testing.T) {
	const n = 4
	g, err := NewGroup(n)
	if err != nil {
		t.Fatal(err)
	}
	vecs := make([][]float64, n)
	for r := range vecs {
		vecs[r] = []float64{float64(r), 1, 2}
	}
	errs := make(chan error, n)
	for r := 0; r < n-1; r++ {
		go func() { errs <- g.AllReduce(r, vecs[r]) }()
	}
	parked(t, g, n-1)
	g.Close()
	for _, err := range collect(t, errs, n-1) {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("rank returned %v, want ErrClosed", err)
		}
	}
	for r := 0; r < n-1; r++ {
		expectBits(t, "closed at entry", r, vecs[r], []float64{float64(r), 1, 2})
	}
	if err := g.AllReduce(n-1, vecs[n-1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("a call after Close returned %v, want ErrClosed", err)
	}
}

// TestCloseAtExit: Close while ranks wait at the exit barrier for a rank
// still between the barriers. The waiting ranks stay until that rank
// arrives, since it may be writing their chunks; then every rank returns
// ErrClosed. The lagging rank is the test, stepping through the exchange
// by hand.
func TestCloseAtExit(t *testing.T) {
	const n = 4
	g, err := NewGroup(n)
	if err != nil {
		t.Fatal(err)
	}
	vecs := make([][]float64, n)
	for r := range vecs {
		vecs[r] = make([]float64, 8)
	}
	errs := make(chan error, n)
	for r := 0; r < n-1; r++ {
		go func() { errs <- g.AllReduce(r, vecs[r]) }()
	}
	g.vecs[n-1] = vecs[n-1]
	if err := g.bar.wait(true); err != nil {
		t.Fatal(err)
	}
	parked(t, g, n-1)
	g.Close()
	select {
	case err := <-errs:
		t.Fatalf("a rank returned %v while the last rank was still inside the exchange", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := g.bar.wait(false); !errors.Is(err, ErrClosed) {
		t.Fatalf("the last rank got %v at exit, want ErrClosed", err)
	}
	for _, err := range collect(t, errs, n-1) {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("rank returned %v, want ErrClosed", err)
		}
	}
}

// TestMismatchedLengths: ranks whose vectors differ in length all return an
// error, not ErrClosed, and no vector is written. The group stays usable.
func TestMismatchedLengths(t *testing.T) {
	for _, lengths := range [][]int{{4, 4, 5}, {0, 3}, {9, 9, 9, 1, 9}} {
		n := len(lengths)
		g, err := NewGroup(n)
		if err != nil {
			t.Fatal(err)
		}
		vecs, orig := make([][]float64, n), make([][]float64, n)
		for r, l := range lengths {
			vecs[r] = make([]float64, l)
			for i := range vecs[r] {
				vecs[r][i] = float64(10*r + i)
			}
			orig[r] = append([]float64(nil), vecs[r]...)
		}
		errs := make(chan error, n)
		for r := 0; r < n; r++ {
			go func() { errs <- g.AllReduce(r, vecs[r]) }()
		}
		for _, err := range collect(t, errs, n) {
			if err == nil || errors.Is(err, ErrClosed) {
				t.Fatalf("lengths %v: a rank returned %v, want a length error", lengths, err)
			}
		}
		for r := range vecs {
			expectBits(t, "mismatched", r, vecs[r], orig[r])
		}
		same := make([][]float64, n)
		for r := range same {
			same[r] = []float64{float64(r)}
		}
		if err := runCollective(n, func(r int) error { return g.AllReduce(r, same[r]) }); err != nil {
			t.Fatalf("lengths %v: the next call failed: %v", lengths, err)
		}
		g.Close()
	}
}

// FuzzAllReduceBitwise holds the exchange to ReferenceAllReduce bit for bit
// on any bits: 1 to 8 ranks, 0 to 300 values a rank, the leading values
// taken from raw and the rest from seed. The mean must be the reference
// times 1/n. NaN inputs are canonicalised, as reference.go requires; a NaN
// result only has to be a NaN, because two NaNs meeting in a fold (say, one
// made from +Inf and -Inf) keep the payload of whichever operand the
// compiled add puts first.
func FuzzAllReduceBitwise(f *testing.F) {
	inf, negInf, nan := make([]byte, 8), make([]byte, 8), make([]byte, 8)
	binary.LittleEndian.PutUint64(inf, math.Float64bits(math.Inf(1)))
	binary.LittleEndian.PutUint64(negInf, math.Float64bits(math.Inf(-1)))
	binary.LittleEndian.PutUint64(nan, math.Float64bits(math.NaN()))
	f.Add(uint8(0), uint16(0), uint64(0), []byte(nil))
	f.Add(uint8(7), uint16(300), uint64(1), []byte(nil))
	f.Add(uint8(2), uint16(17), uint64(42), append(append(append([]byte{}, inf...), negInf...), nan...))
	f.Add(uint8(4), uint16(1), uint64(7), []byte{0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(5), uint16(9), uint64(3), []byte("order-sensitive bits"))
	f.Fuzz(func(t *testing.T, nRaw uint8, lenRaw uint16, seed uint64, raw []byte) {
		n, length := 1+int(nRaw%8), int(lenRaw%301)
		vecs := make([][]float64, n)
		k := 0
		for r := range vecs {
			vecs[r] = make([]float64, length)
			for i := range vecs[r] {
				var bits uint64
				if 8*(k+1) <= len(raw) {
					bits = binary.LittleEndian.Uint64(raw[8*k:])
				} else {
					bits = splitmix64(seed + uint64(k))
				}
				k++
				if v := math.Float64frombits(bits); math.IsNaN(v) {
					vecs[r][i] = math.NaN()
				} else {
					vecs[r][i] = v
				}
			}
		}
		want, err := ReferenceAllReduce(vecs)
		if err != nil {
			t.Fatal(err)
		}
		inv := 1 / float64(n)
		wantMean := make([]float64, length)
		for i, v := range want {
			wantMean[i] = v * inv
		}
		g, err := NewGroup(n)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		sums, means := make([][]float64, n), make([][]float64, n)
		for r := range vecs {
			sums[r] = append([]float64(nil), vecs[r]...)
			means[r] = append([]float64(nil), vecs[r]...)
		}
		if err := runCollective(n, func(r int) error {
			if err := g.AllReduce(r, sums[r]); err != nil {
				return err
			}
			return g.AllReduceMean(r, means[r])
		}); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < n; r++ {
			sameBits(t, "sum", r, sums[r], want)
			sameBits(t, "mean", r, means[r], wantMean)
		}
	})
}

// sameBits is expectBits with a NaN matching any NaN.
func sameBits(t *testing.T, label string, rank int, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s rank %d elem %d: %v (%#x), want %v (%#x)", label, rank, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// splitmix64 is a one-step 64-bit mixer: well-spread bits from a counter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
