// Package perfmodel is the analytic performance model of data-parallel
// distributed training with collective communication. It predicts iteration
// time and training throughput for a (model, #workers, per-worker batch)
// configuration, reproducing the shapes of the paper's scaling study
// (Section III, Figures 3/4/17):
//
//   - strong scaling (fixed total batch size) rises and then falls: per-worker
//     compute shrinks toward the fixed kernel overhead while ring-allreduce
//     latency grows with the worker count;
//   - weak scaling (fixed per-worker batch) is near-linear with a slope that
//     increases with the per-worker batch size;
//   - the optimal worker count under strong scaling grows with the total
//     batch size, which is the quantity the hybrid scaling mechanism queries.
package perfmodel

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/elan-sys/elan/internal/metrics"
	"github.com/elan-sys/elan/internal/models"
)

// CommModel parametrizes the ring-allreduce cost.
type CommModel struct {
	// LatencyPerStep is the fixed cost of each of the 2(N-1) ring steps.
	LatencyPerStep time.Duration
	// IntraNodeBytesPerSec is the ring bandwidth when all workers share a
	// node (PCIe P2P / SHM mix).
	IntraNodeBytesPerSec float64
	// InterNodeBytesPerSec is the ring bandwidth when the ring crosses the
	// network; the slowest link bounds the ring.
	InterNodeBytesPerSec float64
	// GPUsPerNode controls when the ring starts crossing the network.
	GPUsPerNode int
	// Hierarchical selects the two-tier allreduce for multi-node
	// configurations: intra-node reduce-scatter/allgather rings at
	// intra-node bandwidth plus a single leaders-only ring exchange across
	// the network.
	// The flat ring pays 2(N-1) network-bound steps; the hierarchical one
	// pays 2(nodes-1), which is what restores near-linear weak scaling.
	Hierarchical bool
}

// DefaultCommModel matches the paper's testbed: 8 GPUs per node, 56 Gbps IB.
func DefaultCommModel() CommModel {
	return CommModel{
		LatencyPerStep:       300 * time.Microsecond,
		IntraNodeBytesPerSec: 9e9,
		InterNodeBytesPerSec: 4.2e9,
		GPUsPerNode:          8,
	}
}

// AllreduceTime returns the allreduce time for nWorkers workers and a
// payload of bytes: the flat ring by default, the two-tier hierarchical
// schedule when Hierarchical is set and the workers span nodes. A single
// worker communicates nothing.
func (cm CommModel) AllreduceTime(nWorkers int, bytes int64) time.Duration {
	if nWorkers <= 1 || bytes <= 0 {
		return 0
	}
	if cm.Hierarchical && cm.GPUsPerNode > 0 && nWorkers > cm.GPUsPerNode {
		return cm.HierAllreduceTime(nWorkers, bytes)
	}
	bw := cm.IntraNodeBytesPerSec
	if nWorkers > cm.GPUsPerNode {
		bw = cm.InterNodeBytesPerSec
	}
	steps := 2 * (nWorkers - 1)
	volume := 2 * float64(nWorkers-1) / float64(nWorkers) * float64(bytes)
	sec := volume / bw
	return time.Duration(steps)*cm.LatencyPerStep + time.Duration(sec*float64(time.Second))
}

// HierAllreduceTime models a two-tier hierarchical allreduce:
// an intra-node ring reduce-scatter, member-to-leader chunk gathering, a
// leaders-only flat ring allreduce across the network, leader-to-member
// chunk return, and an intra-node ring allgather. Only the leader ring
// touches the slow inter-node links, and its cost scales with the node
// count rather than the worker count — adding GPUs inside nodes grows only
// the fast intra-node terms, the near-linear scaling regime the paper's
// testbed operates in (FireCaffe's observation). Within a single node it
// degenerates to the flat intra-node ring.
//
// The trade is explicit in the terms below: the hierarchy spends
// ~4(g-1)/g payload volumes on intra-node links (reduce-scatter, gather
// to the leader, scatter back, allgather) to shrink the latency term from
// 2(N-1) to ~2(g+nodes) steps and the inter-node volume from 2(N-1)/N to
// 2(nodes-1)/nodes payloads. It therefore wins when the intra:inter
// bandwidth gap is wide (NVLink-class intra links) or the payload is
// latency-bound, and can lose to the flat ring when intra links are barely
// faster than the network and the payload is huge.
func (cm CommModel) HierAllreduceTime(nWorkers int, bytes int64) time.Duration {
	if nWorkers <= 1 || bytes <= 0 {
		return 0
	}
	g := cm.GPUsPerNode
	if g <= 0 || nWorkers <= g {
		flat := cm
		flat.Hierarchical = false
		return flat.AllreduceTime(nWorkers, bytes)
	}
	nodes := (nWorkers + g - 1) / g
	b := float64(bytes)
	// Intra-node phases: ring reduce-scatter + allgather (2(g-1) steps,
	// 2(g-1)/g of the payload) plus the member<->leader chunk exchange
	// (2 steps, 2(g-1)/g of the payload), all on intra-node links.
	intraSteps := 2*(g-1) + 2
	intraSec := 4 * float64(g-1) / float64(g) * b / cm.IntraNodeBytesPerSec
	// Leader ring across the network: a flat ring over one rank per node,
	// carrying the full payload of node-partial sums.
	interSteps := 2 * (nodes - 1)
	interSec := 2 * float64(nodes-1) / float64(nodes) * b / cm.InterNodeBytesPerSec
	return time.Duration(intraSteps+interSteps)*cm.LatencyPerStep +
		time.Duration((intraSec+interSec)*float64(time.Second))
}

// Perf is the performance model. The zero value is not usable; construct one
// with New.
type Perf struct {
	comm CommModel
}

// New returns a performance model using the given communication model.
func New(comm CommModel) *Perf {
	return &Perf{comm: comm}
}

// Default returns a performance model with DefaultCommModel.
func Default() *Perf { return New(DefaultCommModel()) }

// IterTime predicts the wall time of one training iteration for nWorkers
// workers each computing perWorkerBatch samples. Compute and communication
// partially overlap according to the model's OverlapFraction.
func (p *Perf) IterTime(m models.Model, nWorkers, perWorkerBatch int) (time.Duration, error) {
	if nWorkers <= 0 {
		return 0, fmt.Errorf("perfmodel: non-positive worker count %d", nWorkers)
	}
	if perWorkerBatch <= 0 {
		return 0, fmt.Errorf("perfmodel: non-positive per-worker batch %d", perWorkerBatch)
	}
	compute := m.KernelOverhead + time.Duration(perWorkerBatch)*m.PerSampleTime
	comm := p.comm.AllreduceTime(nWorkers, m.GradBytes())
	// Only the backward half of compute can hide communication.
	hideable := time.Duration(m.OverlapFraction * float64(compute))
	exposed := comm - hideable
	if exposed < 0 {
		exposed = 0
	}
	return compute + exposed, nil
}

// IterTimeStraggler predicts the iteration time when the slowest worker
// computes slowestFactor times slower than its peers. Synchronous
// data-parallel training is bound by the slowest rank: the whole job waits
// at the allreduce, which is the degradation straggler mitigation
// (migrating the affected rank to a healthy device) removes.
func (p *Perf) IterTimeStraggler(m models.Model, nWorkers, perWorkerBatch int, slowestFactor float64) (time.Duration, error) {
	if slowestFactor < 1 {
		return 0, fmt.Errorf("perfmodel: slowest factor %v < 1", slowestFactor)
	}
	base, err := p.IterTime(m, nWorkers, perWorkerBatch)
	if err != nil {
		return 0, err
	}
	if nWorkers == 1 || slowestFactor == 1 {
		return time.Duration(float64(base) * slowestFactor), nil
	}
	// The straggler's compute stretches; communication structure is
	// unchanged. Recompute with the stretched compute on the critical path.
	compute := m.KernelOverhead + time.Duration(perWorkerBatch)*m.PerSampleTime
	stretched := time.Duration(float64(compute) * slowestFactor)
	comm := p.comm.AllreduceTime(nWorkers, m.GradBytes())
	hideable := time.Duration(m.OverlapFraction * float64(stretched))
	exposed := comm - hideable
	if exposed < 0 {
		exposed = 0
	}
	return stretched + exposed, nil
}

// Throughput predicts training throughput in samples/sec for nWorkers
// workers with perWorkerBatch samples each.
func (p *Perf) Throughput(m models.Model, nWorkers, perWorkerBatch int) (float64, error) {
	it, err := p.IterTime(m, nWorkers, perWorkerBatch)
	if err != nil {
		return 0, err
	}
	return float64(nWorkers*perWorkerBatch) / it.Seconds(), nil
}

// ThroughputTBS predicts throughput under strong scaling: a fixed total
// batch size divided across nWorkers. TBS must be divisible by nWorkers.
func (p *Perf) ThroughputTBS(m models.Model, nWorkers, totalBatch int) (float64, error) {
	if nWorkers <= 0 || totalBatch <= 0 {
		return 0, fmt.Errorf("perfmodel: invalid config N=%d TBS=%d", nWorkers, totalBatch)
	}
	if totalBatch%nWorkers != 0 {
		return 0, fmt.Errorf("perfmodel: TBS %d not divisible by %d workers", totalBatch, nWorkers)
	}
	return p.Throughput(m, nWorkers, totalBatch/nWorkers)
}

// OptimalWorkers returns the worker count in {1,2,4,...,maxWorkers} that
// maximizes strong-scaling throughput for the given total batch size. This
// is the N_opt of Algorithm 1, line 9. Only power-of-two counts that divide
// the total batch size and respect GPU memory are considered, matching the
// paper's configurations.
func (p *Perf) OptimalWorkers(m models.Model, totalBatch, maxWorkers int) (int, error) {
	if totalBatch <= 0 {
		return 0, fmt.Errorf("perfmodel: non-positive TBS %d", totalBatch)
	}
	if maxWorkers <= 0 {
		maxWorkers = 1
	}
	bestN, bestT := 0, -1.0
	for n := 1; n <= maxWorkers; n *= 2 {
		if totalBatch%n != 0 {
			continue
		}
		perWorker := totalBatch / n
		if perWorker > m.MaxPerWorkerBatch {
			continue // does not fit in GPU memory
		}
		t, err := p.Throughput(m, n, perWorker)
		if err != nil {
			return 0, err
		}
		if t > bestT {
			bestN, bestT = n, t
		}
	}
	if bestN == 0 {
		return 0, fmt.Errorf("perfmodel: no feasible worker count for %s TBS=%d max=%d",
			m.Name, totalBatch, maxWorkers)
	}
	return bestN, nil
}

// StrongScalingCurve evaluates throughput vs worker count at a fixed total
// batch size, skipping infeasible points (non-divisible or out of memory).
func (p *Perf) StrongScalingCurve(m models.Model, totalBatch int, workers []int) *metrics.Series {
	s := &metrics.Series{Name: fmt.Sprintf("%s strong TBS=%d", m.Name, totalBatch)}
	for _, n := range workers {
		if n <= 0 || totalBatch%n != 0 {
			continue
		}
		if totalBatch/n > m.MaxPerWorkerBatch {
			continue
		}
		t, err := p.ThroughputTBS(m, n, totalBatch)
		if err != nil {
			continue
		}
		s.Add(float64(n), t)
	}
	return s
}

// WeakScalingCurve evaluates throughput vs worker count at a fixed
// per-worker batch size.
func (p *Perf) WeakScalingCurve(m models.Model, perWorkerBatch int, workers []int) *metrics.Series {
	s := &metrics.Series{Name: fmt.Sprintf("%s weak bs/worker=%d", m.Name, perWorkerBatch)}
	for _, n := range workers {
		if n <= 0 {
			continue
		}
		t, err := p.Throughput(m, n, perWorkerBatch)
		if err != nil {
			continue
		}
		s.Add(float64(n), t)
	}
	return s
}

// PowersOfTwo returns {1, 2, 4, ..., <=max}.
func PowersOfTwo(max int) []int {
	var out []int
	for n := 1; n <= max; n *= 2 {
		out = append(out, n)
	}
	return out
}

// Jitter multiplies d by a normally distributed factor (mean 1, relative
// stddev rel) drawn from rng, clamped to stay positive. The measured-systems
// experiments use it to produce realistic error bars.
func Jitter(rng *rand.Rand, d time.Duration, rel float64) time.Duration {
	if rel <= 0 {
		return d
	}
	f := 1 + rng.NormFloat64()*rel
	if f < 0.05 {
		f = 0.05
	}
	return time.Duration(float64(d) * f)
}

// EpochTime predicts the wall time of one epoch over datasetSamples with the
// given configuration.
func (p *Perf) EpochTime(m models.Model, nWorkers, perWorkerBatch, datasetSamples int) (time.Duration, error) {
	it, err := p.IterTime(m, nWorkers, perWorkerBatch)
	if err != nil {
		return 0, err
	}
	tbs := nWorkers * perWorkerBatch
	iters := int(math.Ceil(float64(datasetSamples) / float64(tbs)))
	return time.Duration(iters) * it, nil
}
