package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteTransportJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "transport.json")
	var b strings.Builder
	if err := writeTransportJSON(path, true, &b); err != nil {
		t.Fatalf("writeTransportJSON: %v", err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report transportBenchReport
	if err := json.Unmarshal(buf, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	// Quick mode on a possibly shared box: only the shape is asserted.
	want := []string{"pooled_c1", "pooled_c64", "pooled_c256"}
	if len(report.Rows) != len(want) {
		t.Fatalf("report has %d rows, want %v", len(report.Rows), want)
	}
	for i, r := range report.Rows {
		if r.Name != want[i] || r.Path != "pooled" {
			t.Errorf("row %d = %s on path %q, want %s on pooled", i, r.Name, r.Path, want[i])
		}
		if r.Ops <= 0 || r.NsPerOp <= 0 || r.OpsPerSec <= 0 {
			t.Errorf("%s: degenerate measurement %+v", r.Name, r)
		}
	}
	if !strings.Contains(b.String(), "wrote") {
		t.Errorf("summary line missing:\n%s", b.String())
	}
}
