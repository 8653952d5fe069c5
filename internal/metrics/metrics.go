// Package metrics provides the statistics and reporting helpers shared by
// every experiment in this repository: summary statistics with standard
// deviations (the paper reports error bars as standard deviation), time
// series recording, and fixed-width table printers that the benchmark harness
// uses to emit rows in the same layout as the paper's tables and figures.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Summary holds the aggregate statistics of a sample set.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
}

// Summarize computes summary statistics of xs. An empty sample yields a zero
// Summary. Stddev is the sample standard deviation (n-1 denominator), which is
// what error bars in the paper's figures represent.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 { return Summarize(xs).Mean }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted is Percentile on already-sorted non-empty input.
func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Quantiles holds the tail percentiles reported by the telemetry layer's
// histograms (latency distributions are summarized as P50/P95/P99, the
// shape of the paper's timing claims).
type Quantiles struct {
	P50 float64
	P95 float64
	P99 float64
}

// QuantilesOf computes P50/P95/P99 of xs with a single sort, using the
// same closest-rank interpolation as Percentile. Empty input yields a zero
// Quantiles.
func QuantilesOf(xs []float64) Quantiles {
	if len(xs) == 0 {
		return Quantiles{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Quantiles{
		P50: percentileSorted(sorted, 50),
		P95: percentileSorted(sorted, 95),
		P99: percentileSorted(sorted, 99),
	}
}

// Series is an append-only (x, y) time series.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends one point to the series.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len reports the number of points in the series.
func (s *Series) Len() int { return len(s.X) }

// MeanY returns the mean of the series' Y values.
func (s *Series) MeanY() float64 { return Mean(s.Y) }

// Downsample returns a copy of the series with at most n points, picked at
// evenly spaced indices. It returns the series unchanged if it already has n
// or fewer points.
func (s *Series) Downsample(n int) *Series {
	if n <= 0 || s.Len() <= n {
		return s
	}
	out := &Series{Name: s.Name}
	step := float64(s.Len()-1) / float64(n-1)
	for i := 0; i < n; i++ {
		idx := int(math.Round(float64(i) * step))
		out.Add(s.X[idx], s.Y[idx])
	}
	return out
}

// Table accumulates rows and renders them with aligned columns. It is the
// uniform output format of the benchmark harness.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row. Cells are formatted with %v; float64 cells use %.4g
// to keep columns narrow, and Summary cells render as "mean +/- stddev".
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		case Summary:
			row[i] = fmt.Sprintf("%s +/- %s", trimFloat(v.Mean), trimFloat(v.Stddev))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows reports the number of data rows added.
func (t *Table) NumRows() int { return len(t.rows) }

func trimFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		parts := make([]string, 0, len(cells))
		for i, cell := range cells {
			width := len(cell)
			if i < len(widths) {
				width = widths[i]
			}
			parts = append(parts, pad(cell, width))
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return s + strings.Repeat(" ", width-len(s))
}

// PlotASCII renders series as a coarse ASCII chart, used by cmd/elan-bench to
// visualize figure-style results in the terminal. Each series gets its own
// marker; points are bucketed into a width x height grid.
func PlotASCII(w io.Writer, title string, width, height int, series ...*Series) {
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	total := 0
	for _, s := range series {
		for i := range s.X {
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
			total++
		}
	}
	if total == 0 {
		fmt.Fprintf(w, "== %s == (no data)\n", title)
		return
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	markers := "*o+x#@%&"
	for si, s := range series {
		m := markers[si%len(markers)]
		for i := range s.X {
			cx := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			cy := int((s.Y[i] - minY) / (maxY - minY) * float64(height-1))
			grid[height-1-cy][cx] = m
		}
	}
	fmt.Fprintf(w, "== %s ==\n", title)
	fmt.Fprintf(w, "y: [%s, %s]\n", trimFloat(minY), trimFloat(maxY))
	for _, line := range grid {
		fmt.Fprintf(w, "|%s|\n", string(line))
	}
	fmt.Fprintf(w, "x: [%s, %s]\n", trimFloat(minX), trimFloat(maxX))
	for si, s := range series {
		fmt.Fprintf(w, "  %c = %s\n", markers[si%len(markers)], s.Name)
	}
}
