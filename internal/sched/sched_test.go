package sched

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/elan-sys/elan/internal/coord"
	"github.com/elan-sys/elan/internal/models"
	"github.com/elan-sys/elan/internal/trace"
)

// smallTrace generates a quick trace for unit tests.
func smallTrace(t *testing.T, seed int64) []trace.Job {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Seed = seed
	cfg.Span = 4 * time.Hour
	cfg.JobsPerDay = 180
	cfg.MeanServiceMinutes = 25
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return jobs
}

func runPolicy(t *testing.T, p Policy, sys System, jobs []trace.Job) *Result {
	t.Helper()
	cfg := DefaultConfig(p, sys)
	cfg.Tick = 2 * time.Second
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatalf("Run(%v): %v", p, err)
	}
	return res
}

func TestRunValidation(t *testing.T) {
	jobs := smallTrace(t, 1)
	cfg := DefaultConfig(FIFO, IdealSystem{})
	cfg.GPUs = 0
	if _, err := Run(cfg, jobs); err == nil {
		t.Fatal("zero GPUs accepted")
	}
	cfg = DefaultConfig(FIFO, nil)
	if _, err := Run(cfg, jobs); err == nil {
		t.Fatal("nil system accepted")
	}
	if _, err := Run(DefaultConfig(FIFO, IdealSystem{}), nil); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestAllJobsComplete(t *testing.T) {
	jobs := smallTrace(t, 2)
	for _, p := range []Policy{FIFO, Backfill, ElasticFIFO, ElasticBackfill} {
		res := runPolicy(t, p, IdealSystem{}, jobs)
		if len(res.Jobs) != len(jobs) {
			t.Fatalf("%v: %d of %d jobs reported", p, len(res.Jobs), len(jobs))
		}
		for _, j := range res.Jobs {
			if j.Finish < j.Start || j.Start < j.Submit {
				t.Fatalf("%v: job %d has inconsistent times %+v", p, j.ID, j)
			}
			if j.Pending < 0 || j.JCT <= 0 {
				t.Fatalf("%v: job %d stats %+v", p, j.ID, j)
			}
		}
		if res.Makespan <= 0 {
			t.Fatalf("%v: makespan %v", p, res.Makespan)
		}
	}
}

func TestElasticReducesPendingAndJCT(t *testing.T) {
	// Figure 20's direction: the elastic variant improves JPT, JCT and
	// makespan over its static counterpart.
	jobs := smallTrace(t, 3)
	fifo := runPolicy(t, FIFO, IdealSystem{}, jobs)
	efifo := runPolicy(t, ElasticFIFO, IdealSystem{}, jobs)
	if efifo.MeanJPT >= fifo.MeanJPT {
		t.Errorf("E-FIFO JPT %v not better than FIFO %v", efifo.MeanJPT, fifo.MeanJPT)
	}
	if efifo.MeanJCT >= fifo.MeanJCT {
		t.Errorf("E-FIFO JCT %v not better than FIFO %v", efifo.MeanJCT, fifo.MeanJCT)
	}
	if efifo.Makespan > fifo.Makespan {
		t.Errorf("E-FIFO makespan %v worse than FIFO %v", efifo.Makespan, fifo.Makespan)
	}
	bf := runPolicy(t, Backfill, IdealSystem{}, jobs)
	ebf := runPolicy(t, ElasticBackfill, IdealSystem{}, jobs)
	if ebf.MeanJPT >= bf.MeanJPT {
		t.Errorf("E-BF JPT %v not better than BF %v", ebf.MeanJPT, bf.MeanJPT)
	}
	if ebf.MeanJCT >= bf.MeanJCT {
		t.Errorf("E-BF JCT %v not better than BF %v", ebf.MeanJCT, bf.MeanJCT)
	}
}

func TestBackfillNotWorseThanFIFOPending(t *testing.T) {
	jobs := smallTrace(t, 4)
	fifo := runPolicy(t, FIFO, IdealSystem{}, jobs)
	bf := runPolicy(t, Backfill, IdealSystem{}, jobs)
	// Backfill should not increase mean pending time materially.
	if bf.MeanJPT > fifo.MeanJPT+fifo.MeanJPT/10 {
		t.Fatalf("BF JPT %v much worse than FIFO %v", bf.MeanJPT, fifo.MeanJPT)
	}
}

func TestSystemOrderingElanNearIdealSRWorse(t *testing.T) {
	// Figure 22: Elan ~ Ideal; S&R visibly worse on JCT.
	jobs := smallTrace(t, 5)
	ideal := runPolicy(t, ElasticBackfill, IdealSystem{}, jobs)
	elan := runPolicy(t, ElasticBackfill, NewElanSystem(1), jobs)
	sr := runPolicy(t, ElasticBackfill, NewSRSystem(1), jobs)
	// Elan within a few percent of ideal.
	if ratio := float64(elan.MeanJCT) / float64(ideal.MeanJCT); ratio > 1.05 {
		t.Errorf("Elan JCT %.3fx of ideal, want <= 1.05x", ratio)
	}
	// S&R worse than Elan.
	if sr.MeanJCT <= elan.MeanJCT {
		t.Errorf("S&R JCT %v not worse than Elan %v", sr.MeanJCT, elan.MeanJCT)
	}
}

func TestUtilizationSeriesRecorded(t *testing.T) {
	jobs := smallTrace(t, 6)
	res := runPolicy(t, ElasticFIFO, IdealSystem{}, jobs)
	if len(res.UtilHours) != len(res.UtilVals) || len(res.UtilVals) == 0 {
		t.Fatalf("utilization series %d/%d", len(res.UtilHours), len(res.UtilVals))
	}
	for _, u := range res.UtilVals {
		if u < 0 || u > 1 {
			t.Fatalf("utilization %v out of range", u)
		}
	}
}

func TestElasticUtilizationHigher(t *testing.T) {
	jobs := smallTrace(t, 7)
	fifo := runPolicy(t, FIFO, IdealSystem{}, jobs)
	efifo := runPolicy(t, ElasticFIFO, IdealSystem{}, jobs)
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	// Elastic policies keep the cluster busier while work exists. Compare
	// over the busy prefix (the shorter makespan's span).
	n := len(fifo.UtilVals)
	if len(efifo.UtilVals) < n {
		n = len(efifo.UtilVals)
	}
	if mean(efifo.UtilVals[:n]) <= mean(fifo.UtilVals[:n]) {
		t.Errorf("elastic utilization %.3f not higher than static %.3f",
			mean(efifo.UtilVals[:n]), mean(fifo.UtilVals[:n]))
	}
}

func TestPercentileStats(t *testing.T) {
	jobs := smallTrace(t, 8)
	res := runPolicy(t, ElasticBackfill, IdealSystem{}, jobs)
	if res.P50JCT <= 0 || res.P90JCT < res.P50JCT {
		t.Fatalf("percentiles inconsistent: p50=%v p90=%v", res.P50JCT, res.P90JCT)
	}
	if res.P90JPT < 0 {
		t.Fatalf("P90JPT = %v", res.P90JPT)
	}
	// Mean lies between p50 and max for a right-skewed distribution; at
	// minimum it must not exceed p90 wildly. Just sanity-bound it.
	if res.MeanJCT > 10*res.P90JCT {
		t.Fatalf("mean JCT %v wildly above p90 %v", res.MeanJCT, res.P90JCT)
	}
}

func TestPolicyStrings(t *testing.T) {
	cases := map[Policy]string{FIFO: "FIFO", Backfill: "BF", ElasticFIFO: "E-FIFO", ElasticBackfill: "E-BF"}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%v.String() = %q", int(p), p.String())
		}
	}
	if FIFO.Elastic() || !ElasticFIFO.Elastic() {
		t.Fatal("Elastic() wrong")
	}
}

func TestSystemPauses(t *testing.T) {
	m := models.ResNet50()
	var ideal IdealSystem
	if ideal.Pause(coord.ScaleOut, m, 4, 8) != 0 || ideal.Overhead() != 0 {
		t.Fatal("ideal system not free")
	}
	elan := NewElanSystem(1)
	sr := NewSRSystem(1)
	ep := elan.Pause(coord.ScaleOut, m, 4, 8)
	sp := sr.Pause(coord.ScaleOut, m, 4, 8)
	if ep <= 0 || sp <= 0 {
		t.Fatal("non-positive pauses")
	}
	// Elan's scale-out pause is 10x+ cheaper than S&R's.
	if float64(sp)/float64(ep) < 10 {
		t.Fatalf("S&R/Elan pause ratio %.1f < 10", float64(sp)/float64(ep))
	}
	// Scale-in is cheaper than scale-out for Elan (no replication); the
	// per-sample jitter means we compare means over repeated draws.
	var inSum, outSum time.Duration
	for i := 0; i < 50; i++ {
		inSum += elan.Pause(coord.ScaleIn, m, 8, 4)
		outSum += elan.Pause(coord.ScaleOut, m, 4, 8)
	}
	if inSum >= outSum {
		t.Fatalf("Elan scale-in mean %v not cheaper than scale-out mean %v", inSum/50, outSum/50)
	}
	// S&R migration cheaper than S&R scale-out (start/init hidden).
	if sr.Pause(coord.Migrate, m, 8, 8) >= sp {
		t.Fatal("S&R migration not cheaper than scale-out")
	}
}

func TestTransientCapacityElastic(t *testing.T) {
	jobs := smallTrace(t, 9)
	// Capacity: full 128 GPUs, drops to 64 for one hour, recovers.
	capFn := func(now time.Duration) int {
		if now > time.Hour && now < 2*time.Hour {
			return 64
		}
		return 128
	}
	cfg := DefaultConfig(ElasticBackfill, IdealSystem{})
	cfg.Tick = 2 * time.Second
	cfg.CapacityFn = capFn
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatalf("Run with transient capacity: %v", err)
	}
	if len(res.Jobs) != len(jobs) {
		t.Fatalf("%d of %d jobs completed", len(res.Jobs), len(jobs))
	}
	// Compare against constant capacity: the reclaim must cost something
	// but not break completion.
	base := runPolicy(t, ElasticBackfill, IdealSystem{}, jobs)
	if res.MeanJCT < base.MeanJCT {
		t.Fatalf("transient capacity improved JCT?! %v < %v", res.MeanJCT, base.MeanJCT)
	}
}

func TestTransientCapacityRequiresElastic(t *testing.T) {
	jobs := smallTrace(t, 9)
	cfg := DefaultConfig(FIFO, IdealSystem{})
	cfg.CapacityFn = func(time.Duration) int { return 64 }
	if _, err := Run(cfg, jobs); err == nil {
		t.Fatal("static policy with transient capacity accepted")
	}
}

func TestTransientCapacityDeepReclaim(t *testing.T) {
	// Reclaim below the sum of min_res: the emergency shrink strips GPUs
	// from the largest jobs; everything still completes when capacity
	// returns.
	jobs := smallTrace(t, 10)
	capFn := func(now time.Duration) int {
		if now > 30*time.Minute && now < time.Hour {
			return 8
		}
		return 128
	}
	cfg := DefaultConfig(ElasticFIFO, IdealSystem{})
	cfg.Tick = 2 * time.Second
	cfg.CapacityFn = capFn
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Jobs) != len(jobs) {
		t.Fatalf("%d jobs completed", len(res.Jobs))
	}
}

func TestRandomTracesAllComplete(t *testing.T) {
	// Property: for random small traces and any policy, the simulation
	// terminates with every job completed, start >= submit and
	// finish > start, and JCT at least the ideal service time at max_res.
	prop := func(seed int64, policyRaw uint8) bool {
		cfg := trace.DefaultConfig()
		cfg.Seed = seed
		cfg.Span = 90 * time.Minute
		cfg.JobsPerDay = 300
		cfg.MeanServiceMinutes = 12
		jobs, err := trace.Generate(cfg)
		if err != nil {
			return false
		}
		policies := []Policy{FIFO, Backfill, ElasticFIFO, ElasticBackfill}
		p := policies[int(policyRaw)%len(policies)]
		scfg := DefaultConfig(p, IdealSystem{})
		scfg.Tick = 2 * time.Second
		res, err := Run(scfg, jobs)
		if err != nil {
			return false
		}
		if len(res.Jobs) != len(jobs) {
			return false
		}
		for _, j := range res.Jobs {
			if j.Start < j.Submit || j.Finish <= j.Start {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestReallocateMinResFromWholePool(t *testing.T) {
	// Two jobs at min_res 4 hold 8 of 9 GPUs while an admission reserves 3:
	// min_res plus the reserve exceeds the pool. Both jobs keep min_res, and
	// only the greedy phase gives way to the reserve.
	job := func(id int) *simJob {
		return &simJob{spec: trace.Job{ID: id, Model: models.ResNet50(), ReqWorkers: 4, MinWorkers: 4,
			MaxWorkers: 16, PerWorkerBatch: 32, TotalSamples: 1e9}, started: true, workers: 4}
	}
	running := []*simJob{job(1), job(2)}
	s := &sim{cfg: DefaultConfig(ElasticBackfill, IdealSystem{}), free: 1, total: 9}
	s.reallocate(running, 3)
	for _, j := range running {
		if j.workers != 4 {
			t.Fatalf("job %d holds %d workers, want its min_res 4", j.spec.ID, j.workers)
		}
	}
	if err := s.checkInvariants(running); err != nil || s.free != 1 {
		t.Fatalf("free %d, invariants: %v", s.free, err)
	}
	// With nothing reserved, the greedy phase hands out the spare GPU.
	s.reallocate(running, 0)
	if err := s.checkInvariants(running); err != nil || s.free != 0 {
		t.Fatalf("free %d, invariants: %v", s.free, err)
	}
}

func TestRunDeterministic(t *testing.T) {
	// The quick trace of the scheduling figures, loaded enough that the
	// elastic rules shrink jobs to admit others: two runs must agree on
	// every statistic.
	cfg := trace.DefaultConfig()
	cfg.Seed = 21
	cfg.Span = 3 * time.Hour
	cfg.JobsPerDay = 700
	cfg.MeanServiceMinutes = 55
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, sys := range []func() System{
		func() System { return IdealSystem{} },
		func() System { return NewElanSystem(1) },
		func() System { return NewSRSystem(1) },
	} {
		a := runPolicy(t, ElasticBackfill, sys(), jobs)
		b := runPolicy(t, ElasticBackfill, sys(), jobs)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two runs differ: mean JCT %v vs %v, makespan %v vs %v",
				a.System, a.MeanJCT, b.MeanJCT, a.Makespan, b.Makespan)
		}
	}
}

// deficitSim is a hand-built elastic sim under transient capacity whose
// pool holds fewer GPUs than its running jobs hold, each job running the
// given number of workers against a min_res of 2.
func deficitSim(total int, workers ...int) (*sim, []*simJob) {
	cfg := DefaultConfig(ElasticFIFO, IdealSystem{})
	cfg.CapacityFn = func(time.Duration) int { return total }
	s := &sim{cfg: cfg, total: total, free: total}
	var running []*simJob
	for i, w := range workers {
		spec := trace.Job{ID: i, Model: models.ResNet50(), ReqWorkers: 4, MinWorkers: 2,
			MaxWorkers: 8, PerWorkerBatch: 32, TotalSamples: 1e6}
		j := &simJob{spec: spec, started: true, workers: w, remaining: spec.TotalSamples}
		j.perBatch = s.batchFor(j, w)
		s.free -= w
		running = append(running, j)
	}
	return s, running
}

// TestReallocateDeficitGrowsNoJob: with the pool below the running jobs'
// total min_res and every job already down to 1 worker, the allocation
// rule hands the first job its min_res, but those GPUs are still held by
// the jobs allocated 0; the job must not grow and the deficit must not
// deepen.
func TestReallocateDeficitGrowsNoJob(t *testing.T) {
	s, running := deficitSim(2, 1, 1, 1)
	s.reallocate(running, 0)
	for _, j := range running {
		if j.workers != 1 {
			t.Errorf("job %d holds %d workers after reallocate, want 1", j.spec.ID, j.workers)
		}
	}
	if s.free != -1 {
		t.Errorf("free = %d after reallocate, want -1", s.free)
	}
	if err := s.checkInvariants(running); err != nil {
		t.Errorf("all jobs at 1 worker: %v", err)
	}
}

// TestInvariantDeficitOnlyAtOneWorker: under transient capacity free may
// go negative only once every running job is down to 1 worker.
func TestInvariantDeficitOnlyAtOneWorker(t *testing.T) {
	s, running := deficitSim(2, 2, 1)
	if err := s.checkInvariants(running); err == nil {
		t.Error("negative free with a 2-worker job accepted")
	}
}
