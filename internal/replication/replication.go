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

// Copier moves real bytes for in-process integration: the elastic runtime
// registers per-state-kind copy hooks and Execute invokes them pairwise.
// This mirrors the paper's hook API (Section V-A): the framework supplies
// functions that extract and install each kind of state.
type Copier struct {
	hooks map[string]Hook
	order []string
}

// Hook extracts state from the source worker and installs it into the
// target worker. Implementations are supplied by the framework integration.
type Hook struct {
	// Kind names the state (e.g. "model", "optimizer", "data", "runtime").
	Kind string
	// OnGPU reports whether the state lives in device memory (Table II).
	OnGPU bool
	// Copy performs the actual transfer between two worker indices.
	Copy func(srcWorker, dstWorker int) error
}

// NewCopier creates an empty hook registry.
func NewCopier() *Copier {
	return &Copier{hooks: make(map[string]Hook)}
}

// RegisterHook adds a state-replication hook. Registering the same kind
// twice replaces the hook (framework re-initialization).
func (c *Copier) RegisterHook(h Hook) error {
	if h.Kind == "" {
		return fmt.Errorf("replication: hook with empty kind")
	}
	if h.Copy == nil {
		return fmt.Errorf("replication: hook %q without copy function", h.Kind)
	}
	if _, exists := c.hooks[h.Kind]; !exists {
		c.order = append(c.order, h.Kind)
	}
	c.hooks[h.Kind] = h
	return nil
}

// Kinds returns the registered state kinds in registration order.
func (c *Copier) Kinds() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// Execute runs every hook for the pair (srcWorker, dstWorker). GPU-resident
// and CPU-resident hooks are both executed; the timing overlap is accounted
// for by Plan.Duration, while Execute performs the real data movement.
func (c *Copier) Execute(srcWorker, dstWorker int) error {
	for _, kind := range c.order {
		h := c.hooks[kind]
		if err := h.Copy(srcWorker, dstWorker); err != nil {
			return fmt.Errorf("replication: hook %q: %w", kind, err)
		}
	}
	return nil
}
