package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// hiPercentile returns the highest percentile of xs that still has at
// least ten samples beyond it, and its rank. With fewer than twenty-one
// samples no percentile above the median qualifies, so it is the median.
func hiPercentile(xs []float64) (value, pct float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	i := n - 11
	if i <= n/2 {
		return median(xs), 50
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// The yardstick is the benchmark's own fixed kernel, run on every
// processor at once. It touches no repository code, so its time moves only
// when the host does: a neighbour on the sibling hyperthread or in the
// shared cache slows it as it slows the fleet. It has two halves, timed
// separately, because the two kinds of interference are separate: an
// arithmetic half (independent multiply-adds over a 16 KB array, bound by
// execution ports and L1) and a memory half (sums over 4 MB per processor,
// bound by the shared cache and memory). A latency-bound dependent chain
// was tried and does not notice a busy sibling at all.
const (
	yardArithElems = 2048    // 16 KB per processor
	yardArithReps  = 1200    // ~2 ms
	yardMemElems   = 1 << 19 // 4 MB per processor
	yardMemReps    = 4       // ~2.5 ms

	// Nominal half times: the mean unit on the reference host in an ordinary
	// hour, so a slowdown of one is that host on such a day. They only
	// fix the scale of normalised times; comparisons between two commits on
	// one host do not depend on them.
	yardArithNominalMs = 2.0
	yardMemNominalMs   = 2.8
)

var (
	yardArith, yardMem [][]float64
	yardSink           float64
)

// yardInit allocates the yardstick's arrays, once per process.
func yardInit() {
	if yardArith != nil {
		return
	}
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		a := make([]float64, yardArithElems)
		for i := range a {
			a[i] = float64(i%5) * 0.5
		}
		m := make([]float64, yardMemElems)
		for i := range m {
			m[i] = float64(i % 7)
		}
		yardArith, yardMem = append(yardArith, a), append(yardMem, m)
	}
}

// onAllProcs runs fn on every processor at once and returns the wall time.
func onAllProcs(fn func(g int) float64) time.Duration {
	sums := make([]float64, len(yardArith))
	start := now()
	var wg sync.WaitGroup
	for g := range sums {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sums[g] = fn(g)
		}(g)
	}
	wg.Wait()
	d := since(start)
	for _, s := range sums {
		yardSink += s
	}
	return d
}

// yardUnit runs one unit of the yardstick and returns its two half times
// in milliseconds.
func yardUnit() (arith, mem float64) {
	yardInit()
	arith = ms(onAllProcs(func(g int) float64 {
		a := yardArith[g]
		var s0, s1, s2, s3 float64
		for rep := 0; rep < yardArithReps; rep++ {
			for i := 0; i+3 < len(a); i += 4 {
				s0 += a[i] * 1.0001
				s1 += a[i+1] * 1.0002
				s2 += a[i+2] * 1.0003
				s3 += a[i+3] * 1.0004
			}
		}
		return s0 + s1 + s2 + s3
	}))
	mem = ms(onAllProcs(func(g int) float64 {
		m := yardMem[g]
		var s float64
		for rep := 0; rep < yardMemReps; rep++ {
			for _, v := range m {
				s += v
			}
		}
		return s
	}))
	return arith, mem
}

// sample is one timed observation and when it ended.
type sample struct {
	at time.Time
	v  float64
}

// series is the samples of one metric in one phase of a run.
type series []sample

func (s *series) add(v float64) { *s = append(*s, sample{now(), v}) }

func (s series) values() []float64 {
	vs := make([]float64, len(s))
	for i, x := range s {
		vs[i] = x.v
	}
	return vs
}

// yardRec is one yardstick unit: its two half times and when it ended.
type yardRec struct {
	at         time.Time
	arith, mem float64
}

// yardstick collects units interleaved with a phase of the run.
type yardstick struct {
	units []yardRec
	spent time.Duration // total time inside units
}

const (
	// yardGap is how much of the workload runs between two yardstick
	// units: the yardstick takes about a sixth of the run.
	yardGap = 25 * time.Millisecond
	// yardNear is how many units around a sample say how fast the host was
	// when the sample was taken. Single units are noisy — interference comes
	// in millisecond bursts too — and the host changes state over seconds;
	// sixteen units span about half a second to a second, and of 4 to 128
	// tried gave the steadiest metrics.
	yardNear = 16
)

// due reports whether the workload has had yardGap since the last unit.
func (y *yardstick) due() bool {
	n := len(y.units)
	return n == 0 || since(y.units[n-1].at) >= yardGap
}

// tick runs one unit. The driver calls it, when due, only outside timed
// event intervals.
func (y *yardstick) tick() {
	start := now()
	a, m := yardUnit()
	end := now()
	y.units = append(y.units, yardRec{at: end, arith: a, mem: m})
	y.spent += end.Sub(start)
}

// slowdownAt is how much slower than nominal the host ran around time t:
// the geometric mean of the two halves' slowdowns, each the mean over the
// yardNear units nearest t. One when no unit was taken.
func (y *yardstick) slowdownAt(t time.Time) float64 {
	n := len(y.units)
	if n == 0 {
		return 1
	}
	i := sort.Search(n, func(i int) bool { return !y.units[i].at.Before(t) })
	lo := max(0, i-yardNear/2)
	hi := min(n, lo+yardNear)
	lo = max(0, hi-yardNear)
	var arith, mem float64
	for _, u := range y.units[lo:hi] {
		arith += u.arith
		mem += u.mem
	}
	k := float64(hi - lo)
	return math.Sqrt(arith / k / yardArithNominalMs * mem / k / yardMemNominalMs)
}

// times returns s's timings, each divided by the host's slowdown around
// the moment it was taken: what they would have read on the nominal host.
func (y *yardstick) times(s series) []float64 {
	vs := make([]float64, len(s))
	for i, x := range s {
		vs[i] = x.v / y.slowdownAt(x.at)
	}
	return vs
}

// rates is times for rates: multiplied by the slowdown.
func (y *yardstick) rates(s series) []float64 {
	vs := make([]float64, len(s))
	for i, x := range s {
		vs[i] = x.v * y.slowdownAt(x.at)
	}
	return vs
}

// unitMs returns the median unit time (both halves) and the spread of the
// unit times — quartile distance over median — in percent.
func (y *yardstick) unitMs() (med, spreadPct float64) {
	units := make([]float64, len(y.units))
	for i, u := range y.units {
		units[i] = u.arith + u.mem
	}
	med = median(units)
	if len(units) < 2 || med == 0 {
		return med, 0
	}
	q1, q3 := quartiles(units)
	return med, 100 * (q3 - q1) / med
}

// warmHost spins the yardstick for at least budget. A virtual processor
// that was parked when the process started can take a good part of a
// second to come up, during which a unit takes twice as long, so the spin
// goes on — up to three times the budget — until the last units are within
// a quarter of the fastest: the run then starts on a host that is awake.
func warmHost(budget time.Duration) {
	const tail = 5
	var units []float64
	fastest := math.Inf(1)
	for start := now(); ; {
		a, m := yardUnit()
		units = append(units, a+m)
		fastest = min(fastest, a+m)
		if len(units) < tail {
			continue
		}
		last := median(units[len(units)-tail:])
		if el := since(start); el >= 3*budget || (el >= budget && last <= 1.25*fastest) {
			return
		}
	}
}

// processUsage returns the process's peak resident set in MB (VmHWM) and
// its consumed CPU time.
func processUsage() (peakRSSMB float64, cpu time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return float64(ru.Maxrss) / 1024, cpu // Maxrss is in KB on Linux
}
