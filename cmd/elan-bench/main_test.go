package main

import (
	"errors"
	"strings"
	"testing"

	"github.com/elan-sys/elan/internal/experiment"
)

func TestRunList(t *testing.T) {
	var b strings.Builder
	if err := run("", true, false, &b); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	out := b.String()
	for _, want := range []string{"fig15", "table4", "ablation-replication"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var b strings.Builder
	if err := run("fig11", false, true, &b); err != nil {
		t.Fatalf("run fig11: %v", err)
	}
	if !strings.Contains(b.String(), "initialize") {
		t.Fatalf("fig11 output missing breakdown:\n%s", b.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var b strings.Builder
	if err := experiment.Run("fig999", &b, false); !errors.Is(err, experiment.ErrUnknownID) {
		t.Fatalf("experiment.Run(fig999) = %v, want ErrUnknownID", err)
	}
	err := run("fig999", false, false, &b)
	if err == nil || !strings.Contains(err.Error(), "(use -list)") {
		t.Fatalf("run(fig999) = %v, want the -list hint", err)
	}
	if err := run("", false, false, &b); err == nil {
		t.Fatal("missing -exp accepted")
	}
}

func TestRegistryCoversEveryEvaluationItem(t *testing.T) {
	reg := experiment.Registry()
	// Every table and figure of the evaluation plus the ablations must be
	// regenerable.
	want := []string{
		"table1", "table2", "table4",
		"fig1", "fig3", "fig4", "fig5", "alg1", "fig8", "fig9",
		"fig11", "fig12", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19", "fig20", "fig21", "fig22",
		"ablation-replication", "ablation-coordination",
		"ablation-progressive-lr", "ablation-data-semantics",
		"ablation-async-timeline", "straggler", "spot",
	}
	for _, id := range want {
		if _, ok := reg[id]; !ok {
			t.Errorf("registry missing %q", id)
		}
	}
	if len(reg) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(reg), len(want))
	}
}
