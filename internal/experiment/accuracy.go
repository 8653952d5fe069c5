package experiment

import (
	"fmt"
	"io"
	"time"

	"github.com/elan-sys/elan/internal/data"
	"github.com/elan-sys/elan/internal/metrics"
	"github.com/elan-sys/elan/internal/models"
	"github.com/elan-sys/elan/internal/worker"
)

// Fig05Result is one point of the batch-size/accuracy sweep.
type Fig05Result struct {
	TotalBatch  int
	DefaultAcc  float64
	HybridAcc   float64
	HybridLR    float64
	DefaultLoss float64
	HybridLoss  float64
}

// Fig05 regenerates Figure 5 on the live substrate: final accuracy as a
// function of the total batch size, training with all hyperparameters
// fixed ("Default") versus with the progressive linear scaling rule
// ("Hybrid"). This is real SGD on the pure-Go MLP: the degradation at
// large batches and its recovery under LR scaling are genuine optimization
// effects, not a fitted curve.
func Fig05(w io.Writer, quick bool) ([]Fig05Result, error) {
	const (
		seed     = 5
		samples  = 8192
		features = 16
		classes  = 8
		baseTBS  = 32
		baseLR   = 0.01
		workers  = 4
	)
	epochs := 6
	batches := []int{32, 64, 128, 256, 512, 1024, 2048}
	if quick {
		epochs = 3
		batches = []int{32, 512, 2048}
	}
	train, err := data.GenGaussianMixture(seed, samples, features, classes)
	if err != nil {
		return nil, err
	}
	test, err := data.GenGaussianMixture(seed+1, 2048, features, classes)
	if err != nil {
		return nil, err
	}

	runOne := func(tbs int, hybrid bool) (acc, loss, lr float64, err error) {
		fleet, err := worker.NewFleet(worker.FleetConfig{
			Dataset:    train,
			LayerSizes: []int{features, 32, classes},
			Workers:    workers,
			TotalBatch: baseTBS,
			LR:         baseLR,
			Momentum:   0.9,
			Seed:       seed,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		defer fleet.Close()
		totalIters := epochs * samples / tbs
		if totalIters < 8 {
			totalIters = 8
		}
		if tbs != baseTBS {
			ramp := totalIters / 5
			if ramp < 4 {
				ramp = 4
			}
			if hybrid {
				if err := fleet.SetTotalBatch(tbs, ramp, true); err != nil {
					return 0, 0, 0, err
				}
			} else {
				// Default: batch grows, LR stays. Emulate by setting the
				// batch and then forcing the schedule back to the base LR.
				if err := fleet.SetTotalBatch(tbs, 0, false); err != nil {
					return 0, 0, 0, err
				}
				if err := fleet.ForceLR(baseLR); err != nil {
					return 0, 0, 0, err
				}
			}
		}
		for i := 0; i < totalIters; i++ {
			if _, err := fleet.Step(); err != nil {
				return 0, 0, 0, err
			}
		}
		if fleet.Diverged() {
			return 0, 0, fleet.LR(), nil // report zero accuracy on divergence
		}
		loss, acc, err = fleet.Evaluate(test)
		return acc, loss, fleet.LR(), err
	}

	t := metrics.NewTable("Figure 5: final accuracy vs total batch size (live MLP)",
		"TBS", "Default acc", "Hybrid acc", "Hybrid LR")
	var out []Fig05Result
	for _, tbs := range batches {
		defAcc, defLoss, _, err := runOne(tbs, false)
		if err != nil {
			return nil, fmt.Errorf("default tbs=%d: %w", tbs, err)
		}
		hybAcc, hybLoss, hybLR, err := runOne(tbs, true)
		if err != nil {
			return nil, fmt.Errorf("hybrid tbs=%d: %w", tbs, err)
		}
		out = append(out, Fig05Result{
			TotalBatch: tbs, DefaultAcc: defAcc, HybridAcc: hybAcc,
			HybridLR: hybLR, DefaultLoss: defLoss, HybridLoss: hybLoss,
		})
		t.AddRow(tbs, fmt.Sprintf("%.1f%%", 100*defAcc),
			fmt.Sprintf("%.1f%%", 100*hybAcc), hybLR)
	}
	t.Render(w)
	return out, nil
}

// VIBPhase is one phase of the Section VI-B elastic training schedule.
type VIBPhase struct {
	Epochs     int
	TotalBatch int
	Workers    int
}

// VIBConfig is one of the three Section VI-B configurations.
type VIBConfig struct {
	Name   string
	Phases []VIBPhase
	// Adjustments is the number of Elan resource adjustments the schedule
	// performs (each charges ~1s of pause).
	Adjustments int
	// Dynamic batch schedules follow the AdaBatch accuracy trajectory.
	Dynamic bool
}

// VIBConfigs returns the paper's three configurations: static 16-worker
// training, dynamic batch on fixed 64 workers, and the elastic schedule.
func VIBConfigs() []VIBConfig {
	return []VIBConfig{
		{
			Name:   "512 (16)",
			Phases: []VIBPhase{{Epochs: 90, TotalBatch: 512, Workers: 16}},
		},
		{
			Name: "512-2048 (64)",
			Phases: []VIBPhase{
				{Epochs: 30, TotalBatch: 512, Workers: 64},
				{Epochs: 30, TotalBatch: 1024, Workers: 64},
				{Epochs: 30, TotalBatch: 2048, Workers: 64},
			},
			Dynamic: true,
		},
		{
			Name: "512-2048 (Elastic)",
			Phases: []VIBPhase{
				{Epochs: 30, TotalBatch: 512, Workers: 16},
				{Epochs: 30, TotalBatch: 1024, Workers: 32},
				{Epochs: 30, TotalBatch: 2048, Workers: 64},
			},
			Adjustments: 2,
			Dynamic:     true,
		},
	}
}

// accPoint anchors the accuracy trajectory.
type accPoint struct {
	epoch float64
	acc   float64
}

// staticAccCurve and dynamicAccCurve are the top-1 accuracy trajectories
// of ResNet-50 on ImageNet under the static and the batch-doubling
// (AdaBatch + progressive linear scaling) schedules. We cannot train
// ResNet-50 on ImageNet in this substrate, so the trajectories are
// calibrated to the paper's reported endpoints (75.89% static, 75.87%
// elastic, Figure 18) with the dynamic schedule reaching each target a few
// epochs later — the convergence cost of large batches that the paper's
// time-to-solution numbers embed. The live-substrate Figure 5 experiment
// demonstrates the same effect with real SGD.
var (
	staticAccCurve = []accPoint{
		{0, 0.10}, {5, 0.35}, {10, 0.50}, {20, 0.62}, {30, 0.685},
		{40, 0.707}, {50, 0.722}, {60, 0.735}, {70, 0.742}, {75, 0.745},
		{81, 0.750}, {87, 0.755}, {90, 0.7589},
	}
	dynamicAccCurve = []accPoint{
		{0, 0.10}, {5, 0.33}, {10, 0.48}, {20, 0.61}, {30, 0.680},
		{40, 0.700}, {50, 0.715}, {60, 0.728}, {70, 0.738}, {76, 0.742},
		{82, 0.745}, {86, 0.750}, {89, 0.755}, {90, 0.7587},
	}
)

// accAt interpolates a trajectory at a (fractional) epoch.
func accAt(curve []accPoint, epoch float64) float64 {
	if epoch <= curve[0].epoch {
		return curve[0].acc
	}
	for i := 1; i < len(curve); i++ {
		if epoch <= curve[i].epoch {
			a, b := curve[i-1], curve[i]
			frac := (epoch - a.epoch) / (b.epoch - a.epoch)
			return a.acc + frac*(b.acc-a.acc)
		}
	}
	return curve[len(curve)-1].acc
}

// epochOf inverts a trajectory: the first (fractional) epoch at which the
// accuracy reaches target, or -1 if never.
func epochOf(curve []accPoint, target float64) float64 {
	if target <= curve[0].acc {
		return curve[0].epoch
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].acc >= target {
			a, b := curve[i-1], curve[i]
			frac := (target - a.acc) / (b.acc - a.acc)
			return a.epoch + frac*(b.epoch-a.epoch)
		}
	}
	return -1
}

// vibEpochTime returns the wall time of one epoch of a phase on the VI-B
// testbed.
func vibEpochTime(ph VIBPhase) (time.Duration, error) {
	m := models.ResNet50()
	return VIBPerf().EpochTime(m, ph.Workers, ph.TotalBatch/ph.Workers, m.DatasetSamples)
}

// vibTimeAtEpoch returns the wall time a configuration needs to reach the
// given (fractional) epoch, including Elan adjustment pauses.
func vibTimeAtEpoch(cfg VIBConfig, epoch float64) (time.Duration, error) {
	var t time.Duration
	remaining := epoch
	for _, ph := range cfg.Phases {
		et, err := vibEpochTime(ph)
		if err != nil {
			return 0, err
		}
		span := float64(ph.Epochs)
		if remaining <= span {
			t += time.Duration(remaining * float64(et))
			remaining = 0
			break
		}
		t += time.Duration(span * float64(et))
		remaining -= span
	}
	if remaining > 0 {
		return 0, fmt.Errorf("experiment: epoch %.1f beyond schedule of %s", epoch, cfg.Name)
	}
	// Elan adjustment pauses (~1s each): negligible but accounted.
	t += time.Duration(cfg.Adjustments) * 1200 * time.Millisecond
	return t, nil
}

// vibCurve returns a configuration's accuracy trajectory.
func vibCurve(cfg VIBConfig) []accPoint {
	if cfg.Dynamic {
		return dynamicAccCurve
	}
	return staticAccCurve
}

// Fig18 regenerates Figure 18: top-1 accuracy vs epoch for the static and
// elastic configurations.
func Fig18(w io.Writer) (*metrics.Series, *metrics.Series) {
	static := &metrics.Series{Name: "512 (16)"}
	elastic := &metrics.Series{Name: "512-2048 (Elastic)"}
	t := metrics.NewTable("Figure 18: top-1 accuracy vs epoch",
		"Epoch", "512 (16)", "512-2048 (Elastic)")
	for e := 0; e <= 90; e += 5 {
		s := accAt(staticAccCurve, float64(e))
		el := accAt(dynamicAccCurve, float64(e))
		static.Add(float64(e), s)
		elastic.Add(float64(e), el)
		t.AddRow(e, fmt.Sprintf("%.2f%%", 100*s), fmt.Sprintf("%.2f%%", 100*el))
	}
	t.Render(w)
	fmt.Fprintf(w, "final: static %.2f%%, elastic %.2f%% (paper: 75.89%% / 75.87%%)\n",
		100*accAt(staticAccCurve, 90), 100*accAt(dynamicAccCurve, 90))
	return static, elastic
}

// Fig19 regenerates Figure 19: training progress (accuracy) against wall
// time for the three configurations.
func Fig19(w io.Writer) ([]*metrics.Series, error) {
	t := metrics.NewTable("Figure 19: accuracy vs wall time (hours)",
		"Config", "Epoch", "Hours", "Accuracy")
	var out []*metrics.Series
	for _, cfg := range VIBConfigs() {
		s := &metrics.Series{Name: cfg.Name}
		curve := vibCurve(cfg)
		for e := 0; e <= 90; e += 10 {
			wall, err := vibTimeAtEpoch(cfg, float64(e))
			if err != nil {
				return nil, err
			}
			acc := accAt(curve, float64(e))
			s.Add(wall.Hours(), acc)
			t.AddRow(cfg.Name, e, fmt.Sprintf("%.2f", wall.Hours()), fmt.Sprintf("%.2f%%", 100*acc))
		}
		out = append(out, s)
	}
	t.Render(w)
	return out, nil
}

// Table04Row is one row of Table IV.
type Table04Row struct {
	Target  float64
	TTS     map[string]time.Duration
	Speedup float64 // elastic vs static
	Speed64 float64 // fixed-64 vs static
}

// Table04 regenerates Table IV: time to solution for the three target
// accuracies and the speedup of the elastic configuration.
func Table04(w io.Writer) ([]Table04Row, error) {
	targets := []float64{0.745, 0.750, 0.755}
	cfgs := VIBConfigs()
	t := metrics.NewTable("Table IV: time to solution (s) and speedup vs 512 (16)",
		"Target", "512 (16)", "512-2048 (64)", "512-2048 (Elastic)", "Elastic speedup")
	var rows []Table04Row
	for _, target := range targets {
		row := Table04Row{Target: target, TTS: make(map[string]time.Duration)}
		for _, cfg := range cfgs {
			epoch := epochOf(vibCurve(cfg), target)
			if epoch < 0 {
				return nil, fmt.Errorf("experiment: %s never reaches %.3f", cfg.Name, target)
			}
			wall, err := vibTimeAtEpoch(cfg, epoch)
			if err != nil {
				return nil, err
			}
			row.TTS[cfg.Name] = wall
		}
		staticT := row.TTS["512 (16)"]
		row.Speedup = staticT.Seconds() / row.TTS["512-2048 (Elastic)"].Seconds()
		row.Speed64 = staticT.Seconds() / row.TTS["512-2048 (64)"].Seconds()
		rows = append(rows, row)
		t.AddRow(fmt.Sprintf("%.1f%%", 100*target),
			fmt.Sprintf("%.0f", staticT.Seconds()),
			fmt.Sprintf("%.0f", row.TTS["512-2048 (64)"].Seconds()),
			fmt.Sprintf("%.0f", row.TTS["512-2048 (Elastic)"].Seconds()),
			fmt.Sprintf("%.2fx", row.Speedup))
	}
	t.Render(w)
	return rows, nil
}
