package experiment

import (
	"io"
	"strings"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/baseline"
	"github.com/elan-sys/elan/internal/checkpoint"
	"github.com/elan-sys/elan/internal/coord"
	"github.com/elan-sys/elan/internal/core"
	"github.com/elan-sys/elan/internal/metrics"
	"github.com/elan-sys/elan/internal/models"
	"github.com/elan-sys/elan/internal/sched"
)

func TestTable01ListsAllModels(t *testing.T) {
	var b strings.Builder
	tab := Table01(&b)
	if tab.NumRows() != 5 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	out := b.String()
	for _, want := range []string{"ResNet-50", "VGG-19", "MobileNet-v2", "Seq2Seq", "Transformer", "143M"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestTable02StateInventory(t *testing.T) {
	var b strings.Builder
	tab := Table02(&b)
	if tab.NumRows() != 5 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	out := b.String()
	if !strings.Contains(out, "GPU") || !strings.Contains(out, "CPU") {
		t.Fatal("missing device column values")
	}
}

func TestFig03CurvesHavePeaks(t *testing.T) {
	series := Fig03(io.Discard)
	if len(series) != 15 { // 5 models x 3 TBS
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if s.Len() < 3 {
			t.Errorf("%s: only %d points", s.Name, s.Len())
			continue
		}
		peak := 0
		for i := range s.Y {
			if s.Y[i] > s.Y[peak] {
				peak = i
			}
		}
		if peak == s.Len()-1 {
			t.Errorf("%s: strong scaling never falls", s.Name)
		}
	}
}

func TestFig04CurvesMonotone(t *testing.T) {
	series := Fig04(io.Discard)
	if len(series) != 15 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		for i := 1; i < s.Len(); i++ {
			if s.Y[i] <= s.Y[i-1] {
				t.Errorf("%s: weak scaling not monotone at %v", s.Name, s.X[i])
			}
		}
	}
}

func TestFig08BandwidthOrdering(t *testing.T) {
	series := Fig08(io.Discard)
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	p2p, shm, net := series[0], series[1], series[2]
	for i := range p2p.Y {
		if !(p2p.Y[i] > shm.Y[i] && shm.Y[i] > net.Y[i]) {
			t.Fatalf("ordering violated at point %d: %v %v %v", i, p2p.Y[i], shm.Y[i], net.Y[i])
		}
	}
}

func TestFig09PlanMatchesPaper(t *testing.T) {
	plan, err := Fig09(io.Discard)
	if err != nil {
		t.Fatalf("Fig09: %v", err)
	}
	if len(plan.Pairs) != 2 {
		t.Fatalf("pairs = %d", len(plan.Pairs))
	}
	// E's source is C (node 0, socket 1); F's source is D (node 1).
	if plan.Pairs[0].Source.Socket != 1 || plan.Pairs[0].Source.Node != 0 {
		t.Fatalf("E's source = %v", plan.Pairs[0].Source)
	}
	if plan.Pairs[1].Source.Node != 1 {
		t.Fatalf("F's source = %v", plan.Pairs[1].Source)
	}
}

func TestFig11StartInitDominates(t *testing.T) {
	var b strings.Builder
	Fig11(&b)
	out := b.String()
	for _, phase := range []string{"checkpoint", "shutdown", "start", "initialize", "load"} {
		if !strings.Contains(out, phase) {
			t.Errorf("missing phase %q", phase)
		}
	}
}

func TestFig12ElanPauseSubSecondScale(t *testing.T) {
	if _, err := Fig12(io.Discard); err != nil {
		t.Fatalf("Fig12: %v", err)
	}
}

func TestFig14AllUnderThreePerMille(t *testing.T) {
	tab, err := Fig14(io.Discard)
	if err != nil {
		t.Fatalf("Fig14: %v", err)
	}
	if tab.NumRows() != 30 { // 5 models x 6 worker counts
		t.Fatalf("rows = %d", tab.NumRows())
	}
}

func TestFig15SpeedupBands(t *testing.T) {
	var b strings.Builder
	tab, err := Fig15(&b)
	if err != nil {
		t.Fatalf("Fig15: %v", err)
	}
	if tab.NumRows() != 45 { // 5 models x 9 cases
		t.Fatalf("rows = %d", tab.NumRows())
	}
	out := b.String()
	if !strings.Contains(out, "scale-out") || !strings.Contains(out, "migrate") {
		t.Fatal("missing adjustment kinds")
	}
}

func TestFig16TransformerWorst(t *testing.T) {
	tab, err := Fig16(io.Discard)
	if err != nil {
		t.Fatalf("Fig16: %v", err)
	}
	if tab.NumRows() != 20 { // 5 models x 4 worker counts
		t.Fatalf("rows = %d", tab.NumRows())
	}
}

func TestFig17PaperConfigsNearOptimal(t *testing.T) {
	series := Fig17(io.Discard)
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	// For each TBS, the paper's chosen worker count must be within 25% of
	// the curve's maximum throughput.
	chosen := map[int]float64{512: 16, 1024: 32, 2048: 64}
	tbsOf := []int{512, 1024, 2048}
	for i, s := range series {
		want := chosen[tbsOf[i]]
		var chosenY, maxY float64
		for j := range s.X {
			if s.X[j] == want {
				chosenY = s.Y[j]
			}
			if s.Y[j] > maxY {
				maxY = s.Y[j]
			}
		}
		if chosenY < 0.75*maxY {
			t.Errorf("TBS %d: paper config at %.0f%% of peak", tbsOf[i], 100*chosenY/maxY)
		}
	}
}

func TestFig18FinalAccuraciesMatchPaper(t *testing.T) {
	static, elastic := Fig18(io.Discard)
	finalStatic := static.Y[static.Len()-1]
	finalElastic := elastic.Y[elastic.Len()-1]
	if finalStatic < 0.757 || finalStatic > 0.760 {
		t.Fatalf("static final = %v, want ~0.7589", finalStatic)
	}
	if finalElastic < 0.757 || finalElastic > 0.760 {
		t.Fatalf("elastic final = %v, want ~0.7587", finalElastic)
	}
	// The hybrid mechanism keeps model performance: within 0.1%.
	if diff := finalStatic - finalElastic; diff > 0.001 || diff < -0.001 {
		t.Fatalf("accuracy gap %v too large", diff)
	}
}

func TestFig19ElasticFastest(t *testing.T) {
	series, err := Fig19(io.Discard)
	if err != nil {
		t.Fatalf("Fig19: %v", err)
	}
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	// At epoch 90 (last point), the elastic config's wall time is the
	// smallest.
	endTime := func(s int) float64 { return series[s].X[series[s].Len()-1] }
	static, fixed64, elastic := endTime(0), endTime(1), endTime(2)
	if !(elastic < static && elastic < fixed64) {
		t.Fatalf("elastic (%v h) not fastest: static %v h, fixed-64 %v h", elastic, static, fixed64)
	}
}

func TestTable04SpeedupsMatchPaperShape(t *testing.T) {
	rows, err := Table04(io.Discard)
	if err != nil {
		t.Fatalf("Table04: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	prev := 0.0
	for _, r := range rows {
		// Paper: ~20% speedup (1.2x-1.45x band), increasing with target.
		if r.Speedup < 1.15 || r.Speedup > 1.5 {
			t.Errorf("target %.3f: speedup %.2fx outside [1.15, 1.5]", r.Target, r.Speedup)
		}
		if r.Speedup < prev {
			t.Errorf("speedup not increasing with target accuracy")
		}
		prev = r.Speedup
		// Dynamic batches on fixed 64 workers: no speedup (paper: "hard to
		// obtain a speedup").
		if r.Speed64 > 1.05 {
			t.Errorf("target %.3f: fixed-64 speedup %.2fx, want <= 1.05", r.Target, r.Speed64)
		}
	}
}

func TestFig05PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("live training sweep")
	}
	results, err := Fig05(io.Discard, false)
	if err != nil {
		t.Fatalf("Fig05: %v", err)
	}
	if len(results) != 7 {
		t.Fatalf("results = %d", len(results))
	}
	small := results[0]
	var big, mid Fig05Result
	for _, r := range results {
		if r.TotalBatch == 2048 {
			big = r
		}
		if r.TotalBatch == 1024 {
			mid = r
		}
	}
	// Default degrades with large batches.
	if big.DefaultAcc >= small.DefaultAcc-0.1 {
		t.Errorf("default did not degrade: %.3f -> %.3f", small.DefaultAcc, big.DefaultAcc)
	}
	// Hybrid recovers most of it at mid-large batches.
	if mid.HybridAcc <= mid.DefaultAcc+0.05 {
		t.Errorf("hybrid did not recover at TBS 1024: default %.3f hybrid %.3f",
			mid.DefaultAcc, mid.HybridAcc)
	}
	// Hybrid still beats default at the extreme, but itself degrades
	// relative to the small-batch baseline (the paper's 2^12 observation).
	if big.HybridAcc <= big.DefaultAcc {
		t.Errorf("hybrid worse than default at TBS 2048: %.3f vs %.3f", big.HybridAcc, big.DefaultAcc)
	}
	if big.HybridAcc >= small.HybridAcc-0.03 {
		t.Errorf("hybrid did not degrade at the extreme: %.3f vs %.3f", big.HybridAcc, small.HybridAcc)
	}
}

func TestFig01Fluctuates(t *testing.T) {
	s, err := Fig01(io.Discard)
	if err != nil {
		t.Fatalf("Fig01: %v", err)
	}
	var minU, maxU = 2.0, -1.0
	for _, u := range s.Y {
		if u < minU {
			minU = u
		}
		if u > maxU {
			maxU = u
		}
	}
	if maxU-minU < 0.3 {
		t.Fatalf("utilization fluctuation [%v, %v] too small", minU, maxU)
	}
}

func TestFig20ElasticWins(t *testing.T) {
	runs, err := Fig20(io.Discard, 1, true)
	if err != nil {
		t.Fatalf("Fig20: %v", err)
	}
	if len(runs) != 4 {
		t.Fatalf("runs = %d", len(runs))
	}
	byPolicy := map[string]Fig20Run{}
	for _, r := range runs {
		byPolicy[r.Policy.String()] = r
	}
	if byPolicy["E-FIFO"].MeanJCT >= byPolicy["FIFO"].MeanJCT {
		t.Error("E-FIFO JCT not better than FIFO")
	}
	if byPolicy["E-BF"].Makespan > byPolicy["BF"].Makespan {
		t.Error("E-BF makespan worse than BF")
	}
}

// TestQuickTraceQueues: the quick scheduling trace must saturate the
// cluster, or its Fig 20 has no queueing for elasticity to remove. A few
// seconds of pending time would still print as 0.0 minutes, so FIFO must
// queue for at least a minute on average.
func TestQuickTraceQueues(t *testing.T) {
	runs, err := Fig20(io.Discard, 1, true)
	if err != nil {
		t.Fatalf("Fig20: %v", err)
	}
	for _, r := range runs {
		if r.Policy == sched.FIFO && r.MeanJPT < time.Minute {
			t.Fatalf("FIFO mean JPT = %v on the quick trace, want at least 1m", r.MeanJPT)
		}
	}
}

func TestFig21ElasticUtilizationHigher(t *testing.T) {
	static, elastic, err := Fig21(io.Discard, true)
	if err != nil {
		t.Fatalf("Fig21: %v", err)
	}
	// Compare over the shared busy window.
	n := static.Len()
	if elastic.Len() < n {
		n = elastic.Len()
	}
	var sMean, eMean float64
	for i := 0; i < n; i++ {
		sMean += static.Y[i]
		eMean += elastic.Y[i]
	}
	if eMean <= sMean {
		t.Fatalf("elastic utilization not higher: %v vs %v", eMean/float64(n), sMean/float64(n))
	}
}

func TestFig22SystemOrdering(t *testing.T) {
	runs, err := Fig22(io.Discard, true)
	if err != nil {
		t.Fatalf("Fig22: %v", err)
	}
	if len(runs) != 3 {
		t.Fatalf("runs = %d", len(runs))
	}
	ideal, elan, sr := runs[0], runs[1], runs[2]
	if float64(elan.MeanJCT) > 1.05*float64(ideal.MeanJCT) {
		t.Errorf("Elan JCT %v too far above ideal %v", elan.MeanJCT, ideal.MeanJCT)
	}
	if sr.MeanJCT <= elan.MeanJCT {
		t.Errorf("S&R JCT %v not worse than Elan %v", sr.MeanJCT, elan.MeanJCT)
	}
}

func TestAblationReplicationOrdering(t *testing.T) {
	if _, err := AblationReplication(io.Discard); err != nil {
		t.Fatalf("AblationReplication: %v", err)
	}
}

func TestAblationCoordinationHidesMost(t *testing.T) {
	if _, err := AblationCoordination(io.Discard); err != nil {
		t.Fatalf("AblationCoordination: %v", err)
	}
}

func TestAblationProgressiveLRSmoother(t *testing.T) {
	if testing.Short() {
		t.Skip("live training")
	}
	results, err := AblationProgressiveLR(io.Discard)
	if err != nil {
		t.Fatalf("AblationProgressiveLR: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	prog, imm := results[0], results[1]
	if prog.Mode != "progressive" || imm.Mode != "immediate" {
		t.Fatalf("modes = %q, %q", prog.Mode, imm.Mode)
	}
	if prog.SpikeRate >= imm.SpikeRate {
		t.Fatalf("progressive spike %.2f not smaller than immediate %.2f",
			prog.SpikeRate, imm.SpikeRate)
	}
}

// TestAblationAsyncTimeline: the table renders both modes, and a second run
// prints it byte for byte again: runTimeline owns virtual time and waits for
// the AM before the admitting Step, so nothing depends on scheduling.
func TestAblationAsyncTimeline(t *testing.T) {
	var runs [2]strings.Builder
	for i := range runs {
		tab, err := AblationAsyncTimeline(&runs[i])
		if err != nil {
			t.Fatalf("AblationAsyncTimeline: %v", err)
		}
		if tab.NumRows() != 2 {
			t.Fatalf("rows = %d", tab.NumRows())
		}
	}
	out := runs[0].String()
	if !strings.Contains(out, "asynchronous") || !strings.Contains(out, "synchronous") {
		t.Fatal("modes missing")
	}
	if again := runs[1].String(); again != out {
		t.Fatalf("two runs differ:\n%s\n%s", out, again)
	}
}

func TestAblationDataSemantics(t *testing.T) {
	if _, err := AblationDataSemantics(io.Discard); err != nil {
		t.Fatalf("AblationDataSemantics: %v", err)
	}
}

func TestFig06DemoRenders(t *testing.T) {
	var b strings.Builder
	tab := Fig06Demo(&b)
	if tab.NumRows() == 0 {
		t.Fatal("no decisions rendered")
	}
	if !strings.Contains(b.String(), "strong") {
		t.Fatal("no strong-scaling decision present")
	}
}

func TestStragglerScenario(t *testing.T) {
	var b strings.Builder
	tab, err := StragglerScenario(&b)
	if err != nil {
		t.Fatalf("StragglerScenario: %v", err)
	}
	if tab.NumRows() != 4 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	out := b.String()
	if !strings.Contains(out, "replacement pause") || !strings.Contains(out, "Break-even") {
		t.Fatalf("output incomplete:\n%s", out)
	}
}

func TestSpotScenario(t *testing.T) {
	var b strings.Builder
	tab, err := SpotScenario(&b)
	if err != nil {
		t.Fatalf("SpotScenario: %v", err)
	}
	if tab.NumRows() != 3 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	if !strings.Contains(b.String(), "reclaim") {
		t.Fatal("missing reclaim rows")
	}
}

// tableRows returns a table's data rows, cut out of its rendering at the
// column offsets its dashed separator line gives.
func tableRows(t *testing.T, tab *metrics.Table) [][]string {
	t.Helper()
	lines := strings.Split(strings.TrimRight(tab.String(), "\n"), "\n")
	if tab.Title != "" {
		lines = lines[1:]
	}
	widths := strings.Fields(lines[1])
	var rows [][]string
	for _, line := range lines[2:] {
		row := make([]string, len(widths))
		at := 0
		for i, w := range widths {
			end := min(at+len(w), len(line))
			if i == len(widths)-1 {
				end = len(line)
			}
			row[i] = strings.TrimSpace(line[at:end])
			at = min(end+2, len(line))
		}
		rows = append(rows, row)
	}
	return rows
}

func TestSchedulerElanPauseIsFig15Pause(t *testing.T) {
	// The scheduler's Elan system prices a pause with Figure 15's model and
	// placement: run r of a Fig 15 case is the first pause of
	// sched.NewElanSystem(r) for that case.
	tab, err := Fig15(io.Discard)
	if err != nil {
		t.Fatalf("Fig15: %v", err)
	}
	rows := tableRows(t, tab)
	i := 0
	for _, m := range models.Zoo() {
		for _, cse := range Fig15Cases() {
			samples := make([]float64, Repeats)
			for r := range samples {
				samples[r] = sched.NewElanSystem(int64(r)).Pause(cse.Kind, m, cse.From, cse.To).Seconds()
			}
			want := metrics.NewTable("", "Elan")
			want.AddRow(metrics.Summarize(samples))
			if got := rows[i][2]; got != tableRows(t, want)[0][0] {
				t.Errorf("%s %v: Fig 15 Elan %q, scheduler %q", m.Letter, cse, got, tableRows(t, want)[0][0])
			}
			i++
		}
	}
}

func TestFig11RowsAreSRMeans(t *testing.T) {
	tab, err := Fig11(io.Discard)
	if err != nil {
		t.Fatalf("Fig11: %v", err)
	}
	costs := core.DefaultSystemCosts()
	costs.JitterRel = 0
	rep, err := baseline.NewSR(costs, checkpoint.DefaultFSModel(), 1).Adjust(coord.ScaleOut, models.ResNet50(), 8, 16)
	if err != nil {
		t.Fatalf("Adjust: %v", err)
	}
	rows := tableRows(t, tab)
	if len(rows) != len(rep.Breakdown)+1 {
		t.Fatalf("%d rows for %d phases", len(rows), len(rep.Breakdown))
	}
	for i, p := range rep.Breakdown {
		if rows[i][0] != p.Name || rows[i][1] != fmtDur(p.Duration) {
			t.Errorf("row %d = %v, want %s %s", i, rows[i][:2], p.Name, fmtDur(p.Duration))
		}
	}
	if total := rows[len(rows)-1]; total[0] != "TOTAL" || total[1] != fmtDur(rep.Pause) {
		t.Errorf("total row = %v, want %s", total[:2], fmtDur(rep.Pause))
	}
}
