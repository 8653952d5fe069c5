package replication

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/models"
	"github.com/elan-sys/elan/internal/topology"
)

func cluster(t *testing.T) *topology.Cluster {
	t.Helper()
	c, err := topology.NewCluster(topology.DefaultGeometry())
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

func TestNewPlanPicksNearestSources(t *testing.T) {
	existing := []topology.GPUID{
		{Node: 0, Socket: 0, Switch: 0, Index: 0},
		{Node: 1, Socket: 0, Switch: 0, Index: 0},
	}
	newWorkers := []topology.GPUID{
		{Node: 0, Socket: 0, Switch: 0, Index: 1}, // L1 to existing[0]
		{Node: 1, Socket: 1, Switch: 0, Index: 0}, // L3 to existing[1]
	}
	p, err := NewPlan(existing, newWorkers, 100<<20, 64<<10)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	if len(p.Pairs) != 2 {
		t.Fatalf("pairs = %d", len(p.Pairs))
	}
	if p.Pairs[0].Source != existing[0] || p.Pairs[0].Via != topology.P2P {
		t.Fatalf("pair 0 = %+v", p.Pairs[0])
	}
	if p.Pairs[1].Source != existing[1] || p.Pairs[1].Via != topology.SHM {
		t.Fatalf("pair 1 = %+v", p.Pairs[1])
	}
}

func TestNewPlanValidation(t *testing.T) {
	if _, err := NewPlan(nil, []topology.GPUID{{}}, 1, 1); err == nil {
		t.Fatal("empty existing set accepted")
	}
	if _, err := NewPlan([]topology.GPUID{{}}, nil, -1, 0); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestPlanDurationConcurrent(t *testing.T) {
	c := cluster(t)
	// Two L1 replications on different switches: fully concurrent, so the
	// plan takes one pair's time, not two.
	existing := []topology.GPUID{
		{Node: 0, Socket: 0, Switch: 0, Index: 0},
		{Node: 0, Socket: 1, Switch: 0, Index: 0},
	}
	newWorkers := []topology.GPUID{
		{Node: 0, Socket: 0, Switch: 0, Index: 1},
		{Node: 0, Socket: 1, Switch: 0, Index: 1},
	}
	p, err := NewPlan(existing, newWorkers, 1<<30, 64<<10)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	dur := p.Duration(c)
	single := p.MaxPairTime(c)
	if dur != single {
		t.Fatalf("concurrent plan = %v, want single-pair time %v", dur, single)
	}
}

func TestPlanDurationContentionSerializes(t *testing.T) {
	c := cluster(t)
	// Two L3 replications on the same node share the QPI link: they must
	// serialize (paper: "when multiple replications incur contention ... we
	// perform them in turn").
	existing := []topology.GPUID{
		{Node: 0, Socket: 0, Switch: 0, Index: 0},
		{Node: 0, Socket: 0, Switch: 0, Index: 1},
	}
	newWorkers := []topology.GPUID{
		{Node: 0, Socket: 1, Switch: 0, Index: 0},
		{Node: 0, Socket: 1, Switch: 0, Index: 1},
	}
	p, err := NewPlan(existing, newWorkers, 1<<30, 0)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	for _, pair := range p.Pairs {
		if pair.Level != topology.L3 {
			t.Fatalf("pair level = %v, want L3", pair.Level)
		}
	}
	dur := p.Duration(c)
	single := c.TransferTime(existing[0], newWorkers[0], 1<<30)
	if dur < 2*single-time.Millisecond {
		t.Fatalf("contended plan = %v, want ~2x single %v", dur, single)
	}
}

func TestNaivePlanSlower(t *testing.T) {
	c := cluster(t)
	// Existing workers on nodes 0 and 1; new workers land next to each of
	// them. The topology-aware plan uses two concurrent intra-node SHM
	// transfers; the naive plan pushes everything from existing[0], one
	// transfer crossing the network, all sequential.
	existing := []topology.GPUID{
		{Node: 0, Socket: 0, Switch: 0, Index: 0},
		{Node: 1, Socket: 0, Switch: 0, Index: 0},
	}
	newWorkers := []topology.GPUID{
		{Node: 0, Socket: 0, Switch: 1, Index: 0}, // L2 to existing[0]
		{Node: 1, Socket: 0, Switch: 1, Index: 0}, // L2 to existing[1]
	}
	aware, err := NewPlan(existing, newWorkers, 200<<20, 64<<10)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	naive, err := NewNaivePlan(existing, newWorkers, 200<<20, 64<<10)
	if err != nil {
		t.Fatalf("NewNaivePlan: %v", err)
	}
	if aware.Duration(c) >= naive.Duration(c) {
		t.Fatalf("topology-aware (%v) not faster than naive (%v)",
			aware.Duration(c), naive.Duration(c))
	}
}

func TestPaperExampleTwoParallelReplications(t *testing.T) {
	// Figure 9's scenario: E replicates from C (same socket), F from D
	// (same node), concurrently.
	a := topology.GPUID{Node: 0, Socket: 0, Switch: 0, Index: 0}
	b := topology.GPUID{Node: 0, Socket: 0, Switch: 0, Index: 1}
	cw := topology.GPUID{Node: 0, Socket: 1, Switch: 0, Index: 0}
	d := topology.GPUID{Node: 1, Socket: 0, Switch: 0, Index: 0}
	e := topology.GPUID{Node: 0, Socket: 1, Switch: 0, Index: 1}
	f := topology.GPUID{Node: 1, Socket: 0, Switch: 1, Index: 0}
	p, err := NewPlan([]topology.GPUID{a, b, cw, d}, []topology.GPUID{e, f}, 100<<20, 8)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	if p.Pairs[0].Source != cw {
		t.Fatalf("E's source = %v, want C", p.Pairs[0].Source)
	}
	if p.Pairs[1].Source != d {
		t.Fatalf("F's source = %v, want D", p.Pairs[1].Source)
	}
	clu := cluster(t)
	if p.Duration(clu) != p.MaxPairTime(clu) {
		t.Fatal("the two replications did not run concurrently")
	}
}

// BenchmarkReplicationPlanning plans a 64 -> 96 scale-out of ResNet-50 on
// 16 nodes: 32 joiners, each matched to its nearest of 64 sources.
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
		if _, err := NewPlan(existing, add, m.GPUStateBytes(), m.CPUStateBytes); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEmptyPlanDuration(t *testing.T) {
	c := cluster(t)
	p := &Plan{}
	if p.Duration(c) != 0 {
		t.Fatal("empty plan has nonzero duration")
	}
}

// TestPlanRunSchedule drives Run with transfers that block until every
// contention domain has one in flight: it only terminates if distinct
// domains (and key-less pairs) really run concurrently, and the per-key
// in-flight count proves pairs sharing a key never do.
func TestPlanRunSchedule(t *testing.T) {
	pairs := []Pair{
		{Contention: "qpi:n0"}, {Contention: "nic:n0+n1"}, {Contention: ""},
		{Contention: "qpi:n0"}, {Contention: ""}, {Contention: "nic:n0+n1"}, {Contention: "qpi:n0"},
	}
	// A state too small to pay for goroutines runs every pair on the
	// caller's, in domain order.
	var inline []int
	caller := make(chan struct{}, 1)
	caller <- struct{}{}
	if err := (&Plan{Pairs: pairs, GPUBytes: minConcurrentBytes - 1}).Run(func(i int, _ Pair) error {
		select {
		case <-caller: // nobody else holds the token: calls do not overlap
		default:
			t.Errorf("pair %d of a small plan ran concurrently with another", i)
		}
		inline = append(inline, i)
		caller <- struct{}{}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 3, 6, 1, 5, 2, 4}; !slices.Equal(inline, want) {
		t.Fatalf("small plan ran pairs %v, want %v", inline, want)
	}

	p := &Plan{Pairs: pairs, GPUBytes: minConcurrentBytes}
	const domains = 4 // qpi:n0, nic:n0+n1 and the two key-less pairs
	var (
		mu       sync.Mutex
		inFlight = map[string]int{}
		maxKey   = map[string]int{}
		order    = map[string][]int{}
		arrived  int
	)
	allIn := make(chan struct{})
	err := p.Run(func(i int, pair Pair) error {
		key := pair.Contention
		if key == "" {
			key = fmt.Sprintf("free-%d", i)
		}
		mu.Lock()
		inFlight[key]++
		maxKey[key] = max(maxKey[key], inFlight[key])
		order[key] = append(order[key], i)
		first := len(order[key]) == 1
		if first {
			if arrived++; arrived == domains {
				close(allIn)
			}
		}
		mu.Unlock()
		if first {
			select {
			case <-allIn:
			case <-time.After(10 * time.Second):
				return fmt.Errorf("pair %d: the other domains never started", i)
			}
		}
		mu.Lock()
		inFlight[key]--
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key, m := range maxKey {
		if m != 1 {
			t.Errorf("%d pairs of domain %q in flight together", m, key)
		}
	}
	// Within a domain, plan order.
	if got := order["qpi:n0"]; !slices.Equal(got, []int{0, 3, 6}) {
		t.Errorf("qpi:n0 ran pairs %v, want [0 3 6]", got)
	}
	if got := order["nic:n0+n1"]; !slices.Equal(got, []int{1, 5}) {
		t.Errorf("nic:n0+n1 ran pairs %v, want [1 5]", got)
	}
}

// TestPlanRunErrors: a failed pair stops its own domain, the other domains
// run to completion, Run returns only after all of them, and it reports the
// lowest-indexed failure.
func TestPlanRunErrors(t *testing.T) {
	p := &Plan{GPUBytes: minConcurrentBytes, Pairs: []Pair{
		{Contention: "a"}, {Contention: "b"}, {Contention: "a"}, {Contention: "b"}, {Contention: ""},
	}}
	errA, errB := errors.New("pair 0 failed"), errors.New("pair 3 failed")
	var mu sync.Mutex
	var ran []int
	err := p.Run(func(i int, _ Pair) error {
		mu.Lock()
		ran = append(ran, i)
		mu.Unlock()
		switch i {
		case 0:
			return errA
		case 3:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("Run = %v, want the lowest-indexed failure %v", err, errA)
	}
	slices.Sort(ran)
	if !slices.Equal(ran, []int{0, 1, 3, 4}) {
		t.Fatalf("ran pairs %v, want [0 1 3 4]: pair 2 follows a failure in its domain", ran)
	}
	if err := (&Plan{}).Run(func(int, Pair) error { return errA }); err != nil {
		t.Fatalf("empty plan = %v", err)
	}
}
