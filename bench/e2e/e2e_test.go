package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the benchmark's driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the tables the
// program emits from in step: same workloads, same metrics, same units,
// directions and bounds, same run length.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q, program %q", i, bf.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, file []benchmarkMetric, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(file), len(defs))
		}
		seen := map[string]bool{}
		for i, def := range defs {
			want := benchmarkMetric{def.name, def.unit, def.better, def.bound}
			if file[i] != want {
				t.Errorf("%s metric %d: file has %+v, program %+v", kind, i, file[i], want)
			}
			if !nameRE.MatchString(def.name) || seen[def.name] {
				t.Errorf("%s metric name %q is malformed or repeated", kind, def.name)
			}
			seen[def.name] = true
			if def.better != "lower" && def.better != "higher" {
				t.Errorf("%s metric %s: better is %q", kind, def.name, def.better)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	for _, def := range endToEnd {
		if def.bound <= 0 || def.bound > 0.25 {
			t.Errorf("end_to_end metric %s: bound %v", def.name, def.bound)
		}
	}
	if i := slices.IndexFunc(endToEnd, func(d metricDef) bool { return d.name == "setup_s" }); i < 0 ||
		endToEnd[i].unit != "s" || endToEnd[i].better != "lower" {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

func quickRun(t *testing.T, workload string, seed int64, trace bool) *report {
	t.Helper()
	rep, err := runChild(options{workload: workload, seed: seed, quick: true, trace: trace, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s: correct %v, %d of %d operations failed", workload, rep.Correct, rep.Failed, rep.Attempted)
	}
	return rep
}

// TestQuickEmitsListedMetrics runs every workload gated and traced at toy
// counts: the result line round-trips through JSON and carries exactly
// the listed metrics with their units. Nothing here asserts a timing.
func TestQuickEmitsListedMetrics(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep := quickRun(t, w.name, 1, trace)
			line, err := json.Marshal(rep.result)
			if err != nil {
				t.Fatal(err)
			}
			var back result
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatalf("%s: result line does not parse: %v", w.name, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(back.Metrics) != len(defs) {
				t.Errorf("%s trace %v: %d metrics emitted, %d listed", w.name, trace, len(back.Metrics), len(defs))
			}
			for _, def := range defs {
				got, ok := back.Metrics[def.name]
				if !ok {
					t.Errorf("%s trace %v: metric %s missing", w.name, trace, def.name)
				} else if got.Unit != def.unit {
					t.Errorf("%s: metric %s has unit %q, want %q", w.name, def.name, got.Unit, def.unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w.name, def.name, got.Value)
				}
			}
			if rep.text == "" {
				t.Errorf("%s trace %v: no readable report", w.name, trace)
			}
		}
	}
}

// collapse drops the repeats of admit_step: how many Steps a scale-out
// waits for its asynchronous ready reports is the one thing in the op
// script a seed does not fix.
func collapse(ops []string) []string {
	return slices.CompactFunc(slices.Clone(ops), func(a, b string) bool { return a == b && a == "admit_step" })
}

// TestSeedFixesInputs: one seed gives the same dataset, the same initial
// model (first-step loss) and the same op script; another seed gives
// other data.
func TestSeedFixesInputs(t *testing.T) {
	a, b, c := quickRun(t, "elastic_churn", 7, false), quickRun(t, "elastic_churn", 7, false), quickRun(t, "elastic_churn", 8, false)
	if a.firstLoss != b.firstLoss {
		t.Errorf("same seed, first-step loss %v and %v", a.firstLoss, b.firstLoss)
	}
	if !reflect.DeepEqual(collapse(a.ops), collapse(b.ops)) {
		t.Error("same seed, different op sequence")
	}
	if a.firstLoss == c.firstLoss {
		t.Errorf("seeds 7 and 8 give the same first-step loss %v", a.firstLoss)
	}
	d7, err := genDataset(7, 64, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	d7b, _ := genDataset(7, 64, 8, 4)
	d8, _ := genDataset(8, 64, 8, 4)
	if !reflect.DeepEqual(d7.X, d7b.X) || reflect.DeepEqual(d7.X, d8.X) {
		t.Error("dataset does not follow the seed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
}
