package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteTelemetryJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.json")
	var b strings.Builder
	if err := writeTelemetryJSON(path, true, &b); err != nil {
		t.Fatalf("writeTelemetryJSON: %v", err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var results []hotBenchResult
	if err := json.Unmarshal(buf, &results); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	byName := map[string]hotBenchResult{}
	for _, r := range results {
		byName[r.Name] = r
		if r.Iters <= 0 || r.NsPerOp <= 0 {
			t.Errorf("%s: degenerate measurement %+v", r.Name, r)
		}
	}
	for _, name := range []string{
		"span_disabled_step", "span_enabled_step", "span_enabled_flight", "flight_record",
	} {
		if _, ok := byName[name]; !ok {
			t.Errorf("report missing %q", name)
		}
	}
	// No allocs_per_op assertion: see TestWriteCollectiveJSON. The zero-alloc
	// contracts of the disabled span path and the flight ring are pinned by
	// the AllocsPerRun tests in internal/telemetry.
	if !strings.Contains(b.String(), "wrote") {
		t.Errorf("summary line missing:\n%s", b.String())
	}
}
