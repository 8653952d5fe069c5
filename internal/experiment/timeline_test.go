package experiment

import (
	"strings"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/core"
	"github.com/elan-sys/elan/internal/models"
	"github.com/elan-sys/elan/internal/topology"
)

func timeline(t *testing.T, synchronous bool) timelineResult {
	t.Helper()
	res, err := runTimeline(synchronous)
	if err != nil {
		t.Fatalf("runTimeline(synchronous=%v): %v", synchronous, err)
	}
	return res
}

// TestAsyncScaleOutTimeline: under asynchronous coordination the fleet keeps
// training while the joiners start, and the request-to-done latency (tens of
// seconds of start+init) stays off the training pause.
func TestAsyncScaleOutTimeline(t *testing.T) {
	res := timeline(t, false)
	// Start+init is ~30 virtual seconds; at ~120 ms an iteration that is
	// hundreds of Steps.
	if res.StepsWhileStarting < 10 {
		t.Fatalf("only %d Steps while the joiners started: async coordination not effective", res.StepsWhileStarting)
	}
	if res.Latency < 20*time.Second {
		t.Fatalf("request->done latency %v suspiciously small", res.Latency)
	}
	if res.Pause > 3*time.Second {
		t.Fatalf("training pause %v not hidden", res.Pause)
	}
}

// TestSynchronousBaselinePausesLonger: the synchronous run charges the
// whole start+init to the pause, and so completes fewer iterations.
func TestSynchronousBaselinePausesLonger(t *testing.T) {
	async, sync := timeline(t, false), timeline(t, true)
	if 10*async.Pause >= sync.Pause {
		t.Fatalf("sync pause %v not much larger than async %v", sync.Pause, async.Pause)
	}
	if async.Iterations <= sync.Iterations {
		t.Fatalf("async completed %d iterations, sync %d", async.Iterations, sync.Iterations)
	}
	if sync.StepsWhileStarting != 0 {
		t.Fatalf("sync stepped %d times while the joiners started", sync.StepsWhileStarting)
	}
	if sync.Latency < 20*time.Second {
		t.Fatalf("sync request->done latency %v suspiciously small", sync.Latency)
	}
}

// TestRenderTimeline: the rendered ablation names every column, a row for
// each mode and the note on the start+init wait both modes share.
func TestRenderTimeline(t *testing.T) {
	var out strings.Builder
	if _, err := AblationAsyncTimeline(&out); err != nil {
		t.Fatalf("AblationAsyncTimeline: %v", err)
	}
	for _, want := range []string{"Mode", "Iterations in 2 min", "Training pause", "Request->done latency",
		"asynchronous", "synchronous", "start+init"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("timeline missing %q:\n%s", want, out.String())
		}
	}
}

// TestEventDrivenMatchesClosedForm cross-validates the fleet's pause against
// core.Job's closed-form pause for the same scale-out. They sample jitter
// independently and the timeline also charges every coordination, so the
// comparison is loose.
func TestEventDrivenMatchesClosedForm(t *testing.T) {
	res := timeline(t, false)
	c := newCluster()
	gpus, err := c.Reserve(8)
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	job, err := core.NewJob(core.JobConfig{
		Model: models.ResNet50(), Cluster: c,
		Workers: topology.IDsOf(gpus), TotalBatch: 256, LR: 0.1, Seed: 3,
	})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	add, err := c.Reserve(8)
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	rep, err := job.ScaleOut(topology.IDsOf(add))
	if err != nil {
		t.Fatalf("ScaleOut: %v", err)
	}
	if ratio := float64(res.Pause) / float64(rep.Pause); ratio < 0.5 || ratio > 2.5 {
		t.Fatalf("fleet pause %v vs closed-form %v (ratio %.2f)", res.Pause, rep.Pause, ratio)
	}
}
