package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseSchedule(t *testing.T) {
	actions, err := parseSchedule("200:out2, 400:batch128,100:in1")
	if err != nil {
		t.Fatalf("parseSchedule: %v", err)
	}
	if len(actions) != 3 {
		t.Fatalf("actions = %d", len(actions))
	}
	// Sorted by iteration.
	if actions[0].iter != 100 || actions[0].verb != "in" || actions[0].arg != 1 {
		t.Fatalf("actions[0] = %+v", actions[0])
	}
	if actions[2].verb != "batch" || actions[2].arg != 128 {
		t.Fatalf("actions[2] = %+v", actions[2])
	}
	if got, err := parseSchedule(""); err != nil || got != nil {
		t.Fatalf("empty schedule = %v, %v", got, err)
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, bad := range []string{"nocolon", "x:out2", "5:fly3", "5:out", "5:outx", "-1:out2", "5:out0"} {
		if _, err := parseSchedule(bad); err == nil {
			t.Errorf("schedule %q accepted", bad)
		}
	}
}

func TestRunWithSchedule(t *testing.T) {
	var b strings.Builder
	opts := options{workers: 2, tbs: 64, iters: 120, lr: 0.02, seed: 7, schedule: "40:out2,80:batch128"}
	if err := run(context.Background(), &b, opts); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := b.String()
	for _, want := range []string{"after out2", "out2 timing", "after batch128", "final", "consistent=true"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "consistent=false") {
		t.Fatal("replica consistency violated")
	}
}

func TestRunBadAction(t *testing.T) {
	var b strings.Builder
	// Scale in below 1 worker fails at execution time.
	opts := options{workers: 2, tbs: 64, iters: 50, lr: 0.02, seed: 7, schedule: "10:in2"}
	if err := run(context.Background(), &b, opts); err == nil {
		t.Fatal("impossible scale-in accepted")
	}
}

func TestRunCancelled(t *testing.T) {
	var b strings.Builder
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := options{workers: 2, tbs: 64, iters: 50, lr: 0.02, seed: 7}
	if err := run(ctx, &b, opts); err == nil {
		t.Fatal("cancelled run returned nil error")
	}
}

// TestRunTraceOut runs a short traced session and checks the acceptance
// contract: the file is valid Chrome trace-event JSON containing spans from
// the transport, worker AND coord layers, and the debug listener serves
// /metrics and /healthz while the run is live.
func TestRunTraceOut(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var b strings.Builder
	opts := options{
		workers: 2, tbs: 64, iters: 10, lr: 0.02, seed: 7,
		schedule: "5:out2", traceOut: tracePath, debugAddr: "127.0.0.1:0",
	}
	if err := run(context.Background(), &b, opts); err != nil {
		t.Fatalf("run: %v\n%s", err, b.String())
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	seen := map[string]bool{}
	for _, e := range events {
		name, _ := e["name"].(string)
		if i := strings.IndexByte(name, '.'); i > 0 {
			seen[name[:i]] = true
		}
	}
	for _, layer := range []string{"transport", "worker", "coord"} {
		if !seen[layer] {
			t.Errorf("trace has no %s.* spans (saw %v)", layer, seen)
		}
	}

	// The debug address is printed while serving; probe it from the output.
	out := b.String()
	var addr string
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "debug: serving /metrics and /healthz on http://"); ok {
			addr = rest
		}
	}
	if addr == "" {
		t.Fatalf("no debug address in output:\n%s", out)
	}
	// The server is closed when run returns; a fresh one on the metrics of
	// a new run is exercised by the telemetry package tests. Here just
	// check the line format parsed to host:port.
	if !strings.Contains(addr, ":") {
		t.Fatalf("debug address %q is not host:port", addr)
	}
}

// TestRunChaosDeterministic runs chaos mode twice with the same seed and
// checks the acceptance contract: both runs converge and their "fault "
// event lines are byte-identical.
func TestRunChaosDeterministic(t *testing.T) {
	faultLines := func() (string, string) {
		var b strings.Builder
		opts := options{seed: 7, chaos: true, chaosSeed: 99, chaosFaults: 20}
		if err := runChaos(context.Background(), &b, opts); err != nil {
			t.Fatalf("runChaos: %v\n%s", err, b.String())
		}
		var faults []string
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, "fault ") {
				faults = append(faults, line)
			}
		}
		if len(faults) < 20 {
			t.Fatalf("only %d fault lines:\n%s", len(faults), b.String())
		}
		return strings.Join(faults, "\n"), b.String()
	}
	run1, out := faultLines()
	run2, _ := faultLines()
	if run1 != run2 {
		t.Fatalf("fault logs differ across same-seed runs:\n%s\nvs:\n%s", run1, run2)
	}
	if !strings.Contains(out, "consistent=true") {
		t.Fatalf("chaos run did not converge:\n%s", out)
	}
}

func FuzzParseSchedule(f *testing.F) {
	f.Add("200:out2,400:batch128")
	f.Add("1:in1")
	f.Add("x")
	f.Fuzz(func(t *testing.T, s string) {
		actions, err := parseSchedule(s)
		if err != nil {
			return
		}
		// Accepted schedules are sorted with positive arguments.
		for i, a := range actions {
			if a.arg <= 0 || a.iter < 0 {
				t.Fatalf("invalid accepted action %+v", a)
			}
			if i > 0 && actions[i-1].iter > a.iter {
				t.Fatal("schedule not sorted")
			}
		}
	})
}
