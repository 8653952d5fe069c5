package elan

// The benchmark harness: every table and figure of the paper's evaluation
// has a benchmark that regenerates it. Run
//
//	go test -bench=. -benchmem
//
// to reproduce the full evaluation; each benchmark prints the paper-style
// rows once (on its first iteration) and then measures the cost of the
// regeneration itself. The per-figure logic lives in internal/experiment,
// shared with cmd/elan-bench.

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"testing"

	"github.com/elan-sys/elan/internal/collective"
	"github.com/elan-sys/elan/internal/experiment"
	"github.com/elan-sys/elan/internal/models"
	"github.com/elan-sys/elan/internal/replication"
	"github.com/elan-sys/elan/internal/tensor"
	"github.com/elan-sys/elan/internal/topology"
	"github.com/elan-sys/elan/internal/transport"
)

// onceWriter returns os.Stdout on the first call of a benchmark and
// io.Discard afterwards, so tables print exactly once per `go test -bench`
// invocation.
type onceWriter struct {
	once sync.Once
}

func (o *onceWriter) next() io.Writer {
	w := io.Writer(io.Discard)
	o.once.Do(func() { w = os.Stdout })
	return w
}

var benchPrint = map[string]*onceWriter{}
var benchPrintMu sync.Mutex

func out(name string) io.Writer {
	benchPrintMu.Lock()
	ow, ok := benchPrint[name]
	if !ok {
		ow = &onceWriter{}
		benchPrint[name] = ow
	}
	benchPrintMu.Unlock()
	return ow.next()
}

func BenchmarkTable01ModelZoo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Table01(out("table1"))
	}
}

func BenchmarkTable02StateCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Table02(out("table2"))
	}
}

func BenchmarkFig01TraceUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig01(out("fig1")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig03StrongScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Fig03(out("fig3"))
	}
}

func BenchmarkFig04WeakScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Fig04(out("fig4"))
	}
}

func BenchmarkFig05BatchSizeAccuracy(b *testing.B) {
	quick := testing.Short()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig05(out("fig5"), quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlg01HybridScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Fig06Demo(out("alg1"))
	}
}

func BenchmarkFig08LinkBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Fig08(out("fig8"))
	}
}

func BenchmarkFig09ReplicationPlan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig09(out("fig9")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11SRBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Fig11(out("fig11"))
	}
}

func BenchmarkFig12AdjustmentTimelines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig12(out("fig12")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14RuntimeOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig14(out("fig14")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15Adjustments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig15(out("fig15")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16LitzThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig16(out("fig16")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17ResNetStrongScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Fig17(out("fig17"))
	}
}

func BenchmarkFig18ElasticAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Fig18(out("fig18"))
	}
}

func BenchmarkFig19TrainingEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig19(out("fig19")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable04TimeToSolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Table04(out("table4")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig20SchedulingPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig20(out("fig20"), 1, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig21UtilizationDetail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.Fig21(out("fig21"), true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig22SystemComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig22(out("fig22"), true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationReplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationReplication(out("abl-repl")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCoordination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationCoordination(out("abl-coord")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationProgressiveLR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationProgressiveLR(out("abl-lr")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDataSemantics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationDataSemantics(out("abl-data")); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the hot substrates ---

func BenchmarkRingAllreduce8x64k(b *testing.B) {
	const ranks, length = 8, 65536
	g, err := collective.NewGroup(ranks)
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	vecs := make([][]float64, ranks)
	for r := range vecs {
		vecs[r] = make([]float64, length)
	}
	b.SetBytes(ranks * length * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan error, ranks)
		for r := 0; r < ranks; r++ {
			r := r
			go func() { done <- g.AllReduce(r, vecs[r]) }()
		}
		for r := 0; r < ranks; r++ {
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.MustNew(128, 128)
	y := tensor.MustNew(128, 128)
	x.Randn(rng, 1)
	y.Randn(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tensor.MatMul(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMulInto128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.MustNew(128, 128)
	y := tensor.MustNew(128, 128)
	dst := tensor.MustNew(128, 128)
	x.Randn(rng, 1)
	y.Randn(rng, 1)
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tensor.MatMulInto(dst, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMulInto128Parallel4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.MustNew(128, 128)
	y := tensor.MustNew(128, 128)
	dst := tensor.MustNew(128, 128)
	x.Randn(rng, 1)
	y.Randn(rng, 1)
	prev := tensor.SetParallelism(4)
	defer tensor.SetParallelism(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tensor.MatMulInto(dst, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMul512(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.MustNew(512, 512)
	y := tensor.MustNew(512, 512)
	x.Randn(rng, 1)
	y.Randn(rng, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tensor.MatMul(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMulInto512(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.MustNew(512, 512)
	y := tensor.MustNew(512, 512)
	dst := tensor.MustNew(512, 512)
	x.Randn(rng, 1)
	y.Randn(rng, 1)
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tensor.MatMulInto(dst, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMulInto512Parallel4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.MustNew(512, 512)
	y := tensor.MustNew(512, 512)
	dst := tensor.MustNew(512, 512)
	x.Randn(rng, 1)
	y.Randn(rng, 1)
	prev := tensor.SetParallelism(4)
	defer tensor.SetParallelism(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tensor.MatMulInto(dst, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadKernels times the three Into kernels at the layer shapes
// of the benchmark's steady_compute workload (60 samples a rank through an
// MLP 128-512-512-10): batch x in x out names the forward product
// MatMulInto(60 x out <- 60 x in, in x out), the weight gradient
// MatMulATInto(in x out <- 60 x in, 60 x out) and the input gradient
// MatMulBTInto(60 x in <- 60 x out, in x out). The relu variants zero the
// negative half of the a operand, as a hidden layer's activations and
// masked gradients are. Serial, so a row is the kernel's own speed.
func BenchmarkWorkloadKernels(b *testing.B) {
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	kernels := []struct {
		name string
		into func(dst, a, b *tensor.Matrix) error
		dims func(batch, in, out int) (dst, a, b [2]int)
	}{
		{"MatMulInto", tensor.MatMulInto, func(n, in, out int) (_, _, _ [2]int) { return [2]int{n, out}, [2]int{n, in}, [2]int{in, out} }},
		{"MatMulATInto", tensor.MatMulATInto, func(n, in, out int) (_, _, _ [2]int) { return [2]int{in, out}, [2]int{n, in}, [2]int{n, out} }},
		{"MatMulBTInto", tensor.MatMulBTInto, func(n, in, out int) (_, _, _ [2]int) { return [2]int{n, in}, [2]int{n, out}, [2]int{in, out} }},
	}
	for _, k := range kernels {
		for _, sh := range [][3]int{{60, 512, 512}, {60, 128, 512}} {
			for _, fill := range []string{"dense", "relu"} {
				dd, da, db := k.dims(sh[0], sh[1], sh[2])
				rng := rand.New(rand.NewSource(1))
				dst, x, y := tensor.MustNew(dd[0], dd[1]), tensor.MustNew(da[0], da[1]), tensor.MustNew(db[0], db[1])
				x.Randn(rng, 1)
				y.Randn(rng, 1)
				if fill == "relu" {
					x.ReLU()
				}
				b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", k.name, sh[0], sh[1], sh[2], fill), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := k.into(dst, x, y); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

func BenchmarkTransportCall(b *testing.B) {
	bus := transport.NewBus(transport.DefaultBusConfig())
	if _, err := bus.Endpoint("server", func(m transport.Message) ([]byte, error) {
		return m.Payload, nil
	}); err != nil {
		b.Fatal(err)
	}
	client, err := bus.Endpoint("client", nil)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Call("server", "echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplicationPlanning(b *testing.B) {
	g := topology.DefaultGeometry()
	g.Nodes = 16
	c, err := topology.NewCluster(g)
	if err != nil {
		b.Fatal(err)
	}
	existing := topology.IDsOf(c.AllGPUs()[:64])
	add := topology.IDsOf(c.AllGPUs()[64:96])
	m := models.ResNet50()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replication.NewPlan(existing, add, m.GPUStateBytes(), m.CPUStateBytes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScenarioStraggler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.StragglerScenario(out("straggler")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScenarioSpotCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.SpotScenario(out("spot")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationAsyncTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationAsyncTimeline(out("abl-async")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLiveTrainingStep(b *testing.B) {
	ds, err := GenDataset(1, 2048, 4, 3)
	if err != nil {
		b.Fatal(err)
	}
	f, err := NewFleet(FleetConfig{
		Dataset: ds, LayerSizes: []int{4, 32, 3},
		Workers: 4, TotalBatch: 64, LR: 0.05, Momentum: 0.9, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
