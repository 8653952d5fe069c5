// Package replication implements the paper's concurrent IO-free state
// replication mechanism (Section IV) and a naive baseline for ablation.
//
// Given the set of existing workers (each holding an identical copy of the
// training state, a property of data-parallel training) and the set of new
// workers, the planner selects for every new worker the nearest existing
// source in the hardware topology (P2P > SHM > NET) and schedules all pair
// transfers concurrently, serializing only the pairs that share a contended
// physical link (the socket-level QPI link on L3 paths, NICs on L4 paths).
// CPU state is replicated in parallel with GPU state and, being orders of
// magnitude smaller, is fully overlapped.
//
// Plan.Run executes a plan on real state through a per-pair callback; the
// one framework contract it needs is State()/Install() (worker.Fleet copies
// a source replica's State() into each target's Install), so the package
// keeps no registry of per-framework copy functions.
package replication

import (
	"fmt"
	"sync"
	"time"

	"github.com/elan-sys/elan/internal/topology"
)

// Pair is one planned replication: state flows Source -> Target.
type Pair struct {
	Source topology.GPUID
	Target topology.GPUID
	Level  topology.LinkLevel
	Via    topology.Transport
	// Contention is the shared-resource key; pairs with equal non-empty
	// keys must run sequentially.
	Contention string
}

// Plan is a scheduled set of replications.
type Plan struct {
	Pairs []Pair
	// GPUBytes and CPUBytes are the per-worker state sizes to move.
	GPUBytes int64
	CPUBytes int64
}

// NewPlan computes the replication plan for adding newWorkers to a job whose
// existing workers are existing. Every new worker gets its own source (the
// nearest existing worker), enabling concurrent transfers (Section IV-3).
func NewPlan(existing, newWorkers []topology.GPUID, gpuBytes, cpuBytes int64) (*Plan, error) {
	if len(existing) == 0 {
		return nil, fmt.Errorf("replication: no existing workers to replicate from")
	}
	if gpuBytes < 0 || cpuBytes < 0 {
		return nil, fmt.Errorf("replication: negative state size")
	}
	p := &Plan{GPUBytes: gpuBytes, CPUBytes: cpuBytes}
	for _, nw := range newWorkers {
		src, ok := topology.Nearest(nw, existing)
		if !ok {
			return nil, fmt.Errorf("replication: no source for %v", nw)
		}
		level := topology.Link(src, nw)
		p.Pairs = append(p.Pairs, Pair{
			Source:     src,
			Target:     nw,
			Level:      level,
			Via:        topology.TransportFor(level),
			Contention: topology.ContentionKey(src, nw),
		})
	}
	return p, nil
}

// NewNaivePlan is the ablation baseline: a single source (the first existing
// worker) replicates to every new worker sequentially over whatever link
// connects them — no topology awareness, no concurrency.
func NewNaivePlan(existing, newWorkers []topology.GPUID, gpuBytes, cpuBytes int64) (*Plan, error) {
	if len(existing) == 0 {
		return nil, fmt.Errorf("replication: no existing workers to replicate from")
	}
	src := existing[0]
	p := &Plan{GPUBytes: gpuBytes, CPUBytes: cpuBytes}
	for _, nw := range newWorkers {
		level := topology.Link(src, nw)
		p.Pairs = append(p.Pairs, Pair{
			Source:     src,
			Target:     nw,
			Level:      level,
			Via:        topology.TransportFor(level),
			Contention: "naive-single-source", // everything serializes
		})
	}
	return p, nil
}

// domains groups the plan's pair indices by contention domain, domains in
// order of first appearance and pairs in plan order within one. The empty
// key means "no shared resource": each such pair is its own domain.
func (p *Plan) domains() [][]int {
	var out [][]int
	byKey := make(map[string]int)
	for i, pair := range p.Pairs {
		d, ok := byKey[pair.Contention]
		if !ok || pair.Contention == "" {
			d = len(out)
			out = append(out, nil)
			byKey[pair.Contention] = d
		}
		out[d] = append(out[d], i)
	}
	return out
}

// Duration computes the simulated completion time of the plan on cluster c:
// pairs in distinct contention domains run concurrently; pairs sharing a
// domain run back to back. CPU state moves over the control network (the
// paper uses a web socket) concurrently with GPU state and the slower of
// the two bounds each pair.
func (p *Plan) Duration(c *topology.Cluster) time.Duration {
	cpuT := c.TransportTime(topology.NET, p.CPUBytes)
	var makespan time.Duration
	for _, domain := range p.domains() {
		var busy time.Duration
		for _, i := range domain {
			busy += max(c.TransferTime(p.Pairs[i].Source, p.Pairs[i].Target, p.GPUBytes), cpuT)
		}
		makespan = max(makespan, busy)
	}
	return makespan
}

// minConcurrentBytes is the state size from which Run gives contention
// domains goroutines of their own. Starting one and waking a processor for
// it costs several microseconds, more than copying a smaller state takes.
const minConcurrentBytes = 256 << 10

// Run executes the plan on real state, the schedule Duration prices:
// do(i, Pairs[i]) performs pair i's transfer, every contention domain runs
// on its own goroutine (the first on the caller's), and the pairs of one
// domain run back to back in plan order. A plan moving under
// minConcurrentBytes per worker runs the same domains one after another on
// the caller's goroutine instead. Run returns once every domain has
// finished. A domain stops at its first failed pair; the error returned is
// that of the lowest-indexed pair that failed.
func (p *Plan) Run(do func(i int, pair Pair) error) error {
	errs := make([]error, len(p.Pairs))
	runDomain := func(domain []int) {
		for _, i := range domain {
			if errs[i] = do(i, p.Pairs[i]); errs[i] != nil {
				return
			}
		}
	}
	inline := p.domains()
	var wg sync.WaitGroup
	if p.GPUBytes >= minConcurrentBytes && len(inline) > 1 {
		for _, domain := range inline[1:] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runDomain(domain)
			}()
		}
		inline = inline[:1]
	}
	for _, domain := range inline {
		runDomain(domain)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MaxPairTime returns the duration of the single slowest pair, i.e. the
// plan's lower bound given perfect concurrency.
func (p *Plan) MaxPairTime(c *topology.Cluster) time.Duration {
	var worst time.Duration
	for _, pair := range p.Pairs {
		t := c.TransferTime(pair.Source, pair.Target, p.GPUBytes)
		if t > worst {
			worst = t
		}
	}
	return worst
}
