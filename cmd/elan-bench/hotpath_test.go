package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteHotpathJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hotpath.json")
	var b strings.Builder
	if err := writeHotpathJSON(path, true, &b); err != nil {
		t.Fatalf("writeHotpathJSON: %v", err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var results []hotBenchResult
	if err := json.Unmarshal(buf, &results); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	want := map[string]bool{
		"matmul_naive_128":        false,
		"matmul_into_128_serial":  false,
		"train_step_32x8-32-32-3": false,

		"backward_direct_3x384x384":     false,
		"backward_accumulate_3x384x384": false,
		"sgd_step_fused_147840":         false,
	}
	for _, kern := range []string{"matmul_into", "matmul_at_into", "matmul_bt_into"} {
		for _, shape := range []string{"60x512x512", "60x128x512"} {
			for _, fill := range []string{"dense", "relu"} {
				want[kern+"_"+shape+"_"+fill] = false
			}
		}
	}
	sawInto, sawAllreduce := false, false
	for _, r := range results {
		if _, ok := want[r.Name]; ok {
			want[r.Name] = true
		}
		if strings.HasPrefix(r.Name, "matmul_into_128_parallel_") {
			sawInto = true
			if r.Note == "" {
				t.Errorf("%s: the row that reads like the serial one carries no note saying why", r.Name)
			}
		}
		if strings.HasPrefix(r.Name, "allreduce_bare_") {
			sawAllreduce = true
		}
		if r.Iters <= 0 || r.NsPerOp <= 0 {
			t.Errorf("%s: degenerate measurement %+v", r.Name, r)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("report missing %q", name)
		}
	}
	if !sawInto || !sawAllreduce {
		t.Errorf("report missing parallel matmul or allreduce rows")
	}
	if !strings.Contains(b.String(), "wrote") {
		t.Errorf("summary line missing:\n%s", b.String())
	}
}
