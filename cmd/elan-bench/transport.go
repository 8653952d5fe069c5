package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/transport"
)

// The -transport report measures the TCP data plane under concurrency: the
// pooled, multiplexed client (transport.Client — long-lived connections,
// requests matched by per-connection IDs) against a loopback echo server at
// 1, 64 and 256 concurrent callers. Allocation figures are process-wide
// (runtime.MemStats), so rows include the server side of every call —
// which is exactly the end-to-end buffer-reuse contract being guarded.
type transportBenchRow struct {
	Name        string  `json:"name"`
	Path        string  `json:"path"` // "pooled"
	Concurrency int     `json:"concurrency"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

type transportBenchReport struct {
	Note        string              `json:"note"`
	PayloadSize int                 `json:"payload_bytes"`
	Rows        []transportBenchRow `json:"rows"`
}

// measureTransport runs conc workers × callsPer calls of call and reports
// whole-workload throughput and per-op allocation figures.
func measureTransport(clk clock.Clock, name, path string, conc, callsPer int, call func() error) (transportBenchRow, error) {
	row := transportBenchRow{Name: name, Path: path, Concurrency: conc, Ops: conc * callsPer}
	// Warm-up: one call per worker's worth of connections — builds pools,
	// frame buffers, and the server's accept state outside the timed
	// window.
	for i := 0; i < conc/8+1; i++ {
		if err := call(); err != nil {
			return row, fmt.Errorf("%s: warm-up: %w", name, err)
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := clk.Now()
	var wg sync.WaitGroup
	errs := make(chan error, conc)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < callsPer; i++ {
				if err := call(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := clk.Since(start)
	runtime.ReadMemStats(&after)
	close(errs)
	if err := <-errs; err != nil {
		return row, fmt.Errorf("%s: %w", name, err)
	}
	n := float64(row.Ops)
	row.NsPerOp = float64(elapsed.Nanoseconds()) / n
	row.OpsPerSec = n / elapsed.Seconds()
	row.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / n
	row.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / n
	return row, nil
}

// transportBenches runs the pooled ladder over one echo server. quick
// shrinks per-worker call counts for CI smoke runs.
func transportBenches(quick bool) (*transportBenchReport, error) {
	clk := clock.Wall{}
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i)
	}
	srv := transport.NewServer(func(m transport.Message) ([]byte, error) {
		return m.Payload, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ctx := context.Background()
	const timeout = 30 * time.Second

	report := &transportBenchReport{
		Note:        "loopback echo, 64B payload; pooled = multiplexed transport.Client over 8 connections; allocs are process-wide incl. the server",
		PayloadSize: len(payload),
	}
	levels := []struct {
		conc, calls, quickCalls int
	}{
		{1, 2000, 200},
		{64, 300, 40},
		{256, 200, 25},
	}
	client := transport.NewClient(addr, transport.ClientConfig{Conns: 8})
	defer client.Close()
	for _, lv := range levels {
		calls := lv.calls
		if quick {
			calls = lv.quickCalls
		}
		row, err := measureTransport(clk, fmt.Sprintf("pooled_c%d", lv.conc), "pooled",
			lv.conc, calls, func() error {
				_, err := client.Call(ctx, "echo", payload, timeout)
				return err
			})
		if err != nil {
			return nil, err
		}
		report.Rows = append(report.Rows, row)
	}
	return report, nil
}

// writeTransportJSON runs the transport benchmarks and writes the report.
func writeTransportJSON(path string, quick bool, w io.Writer) error {
	report, err := transportBenches(quick)
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	for _, r := range report.Rows {
		fmt.Fprintf(w, "%-24s %10.0f ns/op %12.0f ops/s %8.1f allocs/op %10.1f B/op\n",
			r.Name, r.NsPerOp, r.OpsPerSec, r.AllocsPerOp, r.BytesPerOp)
	}
	fmt.Fprintf(w, "wrote %d rows to %s\n", len(report.Rows), path)
	return nil
}
