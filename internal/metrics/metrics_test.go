package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Stddev != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{5})
	if s.N != 1 || s.Mean != 5 || s.Stddev != 0 || s.Min != 5 || s.Max != 5 {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	// Sample 2,4,4,4,5,5,7,9: mean 5, sample stddev sqrt(32/7).
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEq(s.Mean, 5) {
		t.Fatalf("mean = %v, want 5", s.Mean)
	}
	want := math.Sqrt(32.0 / 7.0)
	if !almostEq(s.Stddev, want) {
		t.Fatalf("stddev = %v, want %v", s.Stddev, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeProperties(t *testing.T) {
	prop := func(xs []float64) bool {
		for i, x := range xs {
			// quick may generate NaN/Inf via extreme floats; clamp to a sane range.
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
			xs[i] = math.Mod(xs[i], 1e6)
		}
		s := Summarize(xs)
		if len(xs) == 0 {
			return s.N == 0
		}
		if s.Min > s.Max {
			return false
		}
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		return s.Stddev >= 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEq(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); !almostEq(got, 5) {
		t.Fatalf("Percentile(50) = %v, want 5", got)
	}
	if got := Percentile(xs, 30); !almostEq(got, 3) {
		t.Fatalf("Percentile(30) = %v, want 3", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "throughput"
	s.Add(1, 10)
	s.Add(2, 20)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !almostEq(s.MeanY(), 15) {
		t.Fatalf("MeanY = %v", s.MeanY())
	}
}

func TestSeriesDownsample(t *testing.T) {
	var s Series
	for i := 0; i < 100; i++ {
		s.Add(float64(i), float64(i*i))
	}
	d := s.Downsample(10)
	if d.Len() != 10 {
		t.Fatalf("downsampled len = %d, want 10", d.Len())
	}
	if d.X[0] != 0 || d.X[9] != 99 {
		t.Fatalf("endpoints = %v, %v", d.X[0], d.X[9])
	}
	// No-op when already small enough.
	if got := d.Downsample(50); got.Len() != 10 {
		t.Fatalf("no-op downsample len = %d", got.Len())
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "model", "workers", "throughput")
	tb.AddRow("ResNet-50", 8, 1234.5678)
	tb.AddRow("VGG-19", 16, Summary{Mean: 10, Stddev: 0.5})
	out := tb.String()
	for _, want := range []string{"demo", "model", "ResNet-50", "VGG-19", "10 +/- 0.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "a", "bbbb")
	tb.AddRow("xxxxxx", 1)
	lines := strings.Split(strings.TrimSpace(tb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3 (header, sep, row)", len(lines))
	}
	// Header cell "a" must be padded to the row cell width (6).
	if !strings.HasPrefix(lines[0], "a     ") {
		t.Fatalf("header not padded: %q", lines[0])
	}
}

func TestPlotASCII(t *testing.T) {
	var s Series
	s.Name = "line"
	for i := 0; i < 20; i++ {
		s.Add(float64(i), float64(i))
	}
	var b strings.Builder
	PlotASCII(&b, "test-plot", 40, 10, &s)
	out := b.String()
	if !strings.Contains(out, "test-plot") || !strings.Contains(out, "* = line") {
		t.Fatalf("plot output unexpected:\n%s", out)
	}
}

func TestPlotASCIIEmpty(t *testing.T) {
	var b strings.Builder
	PlotASCII(&b, "empty", 40, 10)
	if !strings.Contains(b.String(), "no data") {
		t.Fatalf("empty plot output: %s", b.String())
	}
}

func TestTrimFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{5, "5"}, {1234.56, "1234.6"}, {12.345, "12.35"}, {0.12345, "0.1235"},
	}
	for _, c := range cases {
		if got := trimFloat(c.in); got != c.want {
			t.Errorf("trimFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestQuantilesEmptyAndSingle(t *testing.T) {
	if q := QuantilesOf(nil); q != (Quantiles{}) {
		t.Fatalf("empty quantiles = %+v", q)
	}
	q := QuantilesOf([]float64{3})
	if q.P50 != 3 || q.P95 != 3 || q.P99 != 3 {
		t.Fatalf("single quantiles = %+v", q)
	}
}

func TestQuantilesMatchPercentile(t *testing.T) {
	xs := []float64{9, 1, 4, 7, 2, 8, 3, 6, 5, 0}
	q := QuantilesOf(xs)
	for _, c := range []struct {
		p    float64
		got  float64
		name string
	}{
		{50, q.P50, "P50"},
		{95, q.P95, "P95"},
		{99, q.P99, "P99"},
	} {
		if want := Percentile(xs, c.p); !almostEq(c.got, want) {
			t.Errorf("%s = %v, Percentile(%v) = %v", c.name, c.got, c.p, want)
		}
	}
}

func TestQuantilesProperties(t *testing.T) {
	prop := func(xs []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
			xs[i] = math.Mod(xs[i], 1e6)
		}
		q := QuantilesOf(xs)
		if len(xs) == 0 {
			return q == Quantiles{}
		}
		s := Summarize(xs)
		// Ordered and bounded by the sample range.
		if q.P50 > q.P95+1e-9 || q.P95 > q.P99+1e-9 {
			return false
		}
		if q.P50 < s.Min-1e-9 || q.P99 > s.Max+1e-9 {
			return false
		}
		// Permutation invariance: quantiles are order statistics.
		rev := make([]float64, len(xs))
		for i, x := range xs {
			rev[len(xs)-1-i] = x
		}
		qr := QuantilesOf(rev)
		return almostEq(q.P50, qr.P50) && almostEq(q.P95, qr.P95) && almostEq(q.P99, qr.P99)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantilesScaleEquivariant(t *testing.T) {
	// Quantiles commute with positive affine maps: Q(a*x+b) = a*Q(x)+b.
	xs := []float64{0.5, 2, 2, 3, 7, 11, 13, 29}
	q := QuantilesOf(xs)
	scaled := make([]float64, len(xs))
	const a, b = 2.5, -4
	for i, x := range xs {
		scaled[i] = a*x + b
	}
	qs := QuantilesOf(scaled)
	if !almostEq(qs.P50, a*q.P50+b) || !almostEq(qs.P95, a*q.P95+b) || !almostEq(qs.P99, a*q.P99+b) {
		t.Fatalf("affine map not respected: %+v vs %+v", qs, q)
	}
}

func TestQuantilesDoNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	QuantilesOf(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("input mutated: %v", xs)
	}
}
