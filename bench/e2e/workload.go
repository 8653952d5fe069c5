package main

type clusterKind int

const (
	noCluster      clusterKind = iota // flat in-process group
	defaultCluster                    // the paper's 8-node x 8-GPU testbed
	twoByFour                         // 2 nodes x 4 GPUs: 8 workers go hierarchical
)

// workload is one set of inputs. Every workload repeats the same cycle —
// a block of steady steps, then one elastic round — until its time is up;
// they differ in which layer the cycle's time goes to.
type workload struct {
	name        string
	why         string
	layers      []int
	totalBatch  int
	workers     int // steady worker count
	delta       int // the round adjusts to workers+delta and back
	bucketElems int
	cluster     clusterKind
	telemetry   bool // product telemetry on in the gated run
	blockSteps  int  // steady steps opening each cycle
	// blockWindow selects what one samples_per_s sample covers: the steady
	// block alone, or the whole cycle with every elastic stall in it.
	blockWindow bool
	warmupSteps int
	rows        int
	lr          float64
}

// datasetRows keeps generation a visible, seed-dependent part of set-up.
const datasetRows = 16384

var workloads = []workload{
	{
		name: "steady_compute",
		why:  "2 workers, wide MLP, big batch: tensor/nn kernels do most of a step, comm and control are noise",
		// TotalBatch 120, not 128: the round's crash leaves 3 survivors
		// and the fleet requires the batch to divide by the worker count.
		layers: []int{128, 512, 512, 10}, totalBatch: 120, workers: 2, delta: 2,
		blockSteps: 5, blockWindow: true, warmupSteps: 4, rows: datasetRows, lr: 0.02,
	},
	{
		name: "steady_comm",
		why:  "8 workers on 2x4 GPUs, 3 samples per rank, 2.8 MB gradient in 3 buckets: hierarchical allreduce and ddp at their largest share",
		// 8 -> 4 -> 3 -> 4 -> 8 workers: every count divides 24. Buckets
		// close at layer boundaries, so it takes three layers of 65536
		// elements or more to get three buckets.
		layers: []int{256, 384, 384, 256, 10}, totalBatch: 24, workers: 8, delta: -4,
		bucketElems: 65536, cluster: twoByFour,
		blockSteps: 5, blockWindow: true, warmupSteps: 10, rows: datasetRows, lr: 0.005,
	},
	{
		name:   "elastic_churn",
		why:    "8.7 MB replicated state, small batch, back-to-back elastic rounds: state export/install and checkpoints dominate",
		layers: []int{256, 2048, 10}, totalBatch: 24, workers: 2, delta: 2,
		cluster:    defaultCluster,
		blockSteps: 3, warmupSteps: 8, rows: datasetRows, lr: 0.005,
	},
	{
		name:   "churn_observed",
		why:    "tiny model, same rounds, telemetry fully on: coord, bus transport, store CAS and span cost dominate",
		layers: []int{32, 64, 10}, totalBatch: 24, workers: 2, delta: 2,
		cluster: defaultCluster, telemetry: true,
		blockSteps: 3, warmupSteps: 2000, rows: datasetRows, lr: 0.02,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// quick shrinks a workload to toy size for the smoke test: same script,
// same topology, narrow layers and a small dataset.
func (w workload) quick() workload {
	q := w
	q.layers = append([]int(nil), w.layers...)
	for i := 1; i < len(q.layers)-1; i++ {
		q.layers[i] = max(8, q.layers[i]/16)
	}
	q.layers[0] = max(8, q.layers[0]/8)
	if q.bucketElems > 0 {
		q.bucketElems = 64
	}
	q.blockSteps, q.warmupSteps, q.rows = 2, 1, 512
	return q
}

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are the gated metrics; every workload emits all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"samples_per_s", "1/s", "higher", 0.15},
	{"scale_out_pause_ms", "ms", "lower", 0.20},
	{"scale_in_pause_ms", "ms", "lower", 0.20},
	{"scale_out_admit_ms", "ms", "lower", 0.20},
	{"rejoin_ms", "ms", "lower", 0.20},
	{"am_recover_ms", "ms", "lower", 0.20},
	{"ckpt_save_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// events are the six elastic-event timings, in end-to-end order.
var events = []string{
	"scale_out_pause", "scale_in_pause", "scale_out_admit", "rejoin", "am_recover", "ckpt_save",
}

// perLayer are the ungated layer metrics of the traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{name: "tensor.matmul_ms", unit: "ms", better: "lower"},
		{name: "tensor.matmul_gflops", unit: "GFLOP/s", better: "higher"},
		{name: "nn.forward_ms", unit: "ms", better: "lower"},
		{name: "nn.backward_ms", unit: "ms", better: "lower"},
		{name: "nn.opt_step_ms", unit: "ms", better: "lower"},
		{name: "data.batch_into_us", unit: "us", better: "lower"},
		{name: "ddp.backward_allreduce_ms", unit: "ms", better: "lower"},
		{name: "ddp.buckets", unit: "count", better: "lower"},
		{name: "ddp.overlap_hidden_pct", unit: "%", better: "higher"},
		{name: "collective.allreduce_ms", unit: "ms", better: "lower"},
		{name: "collective.bytes_per_step", unit: "B", better: "lower"},
		{name: "collective.calls_per_step", unit: "count", better: "lower"},
		{name: "collective.group_rebuild_us", unit: "us", better: "lower"},
		{name: "coord.coordinate_us", unit: "us", better: "lower"},
		{name: "coord.overhead_share_pct", unit: "%", better: "lower"},
		{name: "coord.adjust_cycle_us", unit: "us", better: "lower"},
		{name: "coord.recover_us", unit: "us", better: "lower"},
		{name: "transport.bus_call_us", unit: "us", better: "lower"},
		{name: "transport.tcp_call_us", unit: "us", better: "lower"},
		{name: "store.cas_us", unit: "us", better: "lower"},
		{name: "store.get_us", unit: "us", better: "lower"},
		{name: "checkpoint.save_ms", unit: "ms", better: "lower"},
		{name: "checkpoint.bytes_per_save", unit: "B", better: "lower"},
		{name: "checkpoint.chunks_written_share", unit: "%", better: "lower"},
		{name: "checkpoint.restore_ms", unit: "ms", better: "lower"},
		{name: "worker.step_p50_ms", unit: "ms", better: "lower"},
		{name: "worker.step_p90_ms", unit: "ms", better: "lower"},
		{name: "worker.step_p99_ms", unit: "ms", better: "lower"},
		{name: "worker.step_n", unit: "count", better: "higher"},
	}
	for _, e := range events {
		defs = append(defs,
			metricDef{name: "worker." + e + "_hi_ms", unit: "ms", better: "lower"},
			metricDef{name: "worker." + e + "_hi_pct", unit: "%", better: "higher"},
			metricDef{name: "worker." + e + "_n", unit: "count", better: "higher"})
	}
	return append(defs,
		metricDef{name: "worker.scale_out_excess_ms", unit: "ms", better: "lower"},
		metricDef{name: "worker.install_state_ms", unit: "ms", better: "lower"},
		metricDef{name: "worker.coord_skips", unit: "count", better: "lower"},
		metricDef{name: "worker.step_residual_pct", unit: "%", better: "lower"},
		metricDef{name: "telemetry.span_us", unit: "us", better: "lower"},
		metricDef{name: "telemetry.flight_record_ns", unit: "ns", better: "lower"},
		metricDef{name: "telemetry.spans_per_step", unit: "count", better: "lower"},
		metricDef{name: "telemetry.attrib_compute_pct", unit: "%", better: "higher"},
		metricDef{name: "telemetry.attrib_comm_pct", unit: "%", better: "lower"},
		metricDef{name: "telemetry.attrib_coord_pct", unit: "%", better: "lower"},
		metricDef{name: "telemetry.attrib_stall_pct", unit: "%", better: "lower"},
		metricDef{name: "telemetry.trace_overhead_pct", unit: "%", better: "lower"},
		metricDef{name: "run.samples_per_s_mean", unit: "1/s", better: "higher"},
		metricDef{name: "run.cpu_s_per_ksample", unit: "s", better: "lower"},
		metricDef{name: "run.alloc_mb_per_kstep", unit: "MB", better: "lower"},
		metricDef{name: "run.gc_cycles", unit: "count", better: "lower"},
		metricDef{name: "run.heap_live_mb", unit: "MB", better: "lower"},
		metricDef{name: "run.final_loss", unit: "loss", better: "lower"},
		metricDef{name: "run.ops_attempted", unit: "count", better: "higher"},
		metricDef{name: "run.ops_failed", unit: "count", better: "lower"},
		metricDef{name: "host.calib_ms", unit: "ms", better: "lower"},
		metricDef{name: "host.calib_spread_pct", unit: "%", better: "lower"},
	)
}
