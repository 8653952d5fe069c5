package ddp

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/collective"
	"github.com/elan-sys/elan/internal/nn"
	"github.com/elan-sys/elan/internal/racecheck"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/tensor"
	"github.com/elan-sys/elan/internal/topology"
)

var testSizes = []int{4, 9, 7, 3}

// buildNet constructs an MLP with a fixed seed so every "rank" holds
// identical parameters, as data-parallel replicas do.
func buildNet(t testing.TB) *nn.MLP {
	t.Helper()
	net, err := nn.NewMLP(rand.New(rand.NewSource(42)), testSizes)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// batchFor builds rank's (distinct) mini-batch.
func batchFor(t testing.TB, rank int) (*tensor.Matrix, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(100 + int64(rank)))
	x := tensor.MustNew(5, testSizes[0])
	x.Randn(rng, 1)
	labels := make([]int, x.Rows)
	for i := range labels {
		labels[i] = rng.Intn(testSizes[len(testSizes)-1])
	}
	return x, labels
}

// lossGradOf runs forward+loss on net for rank's batch.
func lossGradOf(t testing.TB, net *nn.MLP, rank int) *tensor.Matrix {
	t.Helper()
	x, labels := batchFor(t, rank)
	logits, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	_, grad, err := net.SoftmaxLoss(logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	return grad
}

// rawGrads computes rank's un-reduced flat gradient on a fresh replica.
func rawGrads(t testing.TB, rank int) []float64 {
	t.Helper()
	net := buildNet(t)
	net.ZeroGrads()
	grad := lossGradOf(t, net, rank)
	if err := net.Backward(grad); err != nil {
		t.Fatal(err)
	}
	return net.FlattenGrads(nil)
}

// reducedGrads steps n replicas through reducers over a fresh group built
// for topo and returns every rank's post-reduction flat gradient.
func reducedGrads(t *testing.T, topo collective.Topology, cfg Config) [][]float64 {
	t.Helper()
	n := topo.Ranks()
	g, err := collective.NewGroupWithTopology(topo)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	out := make([][]float64, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			net := buildNet(t)
			red := New(net, cfg)
			defer red.Close()
			net.ZeroGrads()
			grad := lossGradOf(t, net, r)
			if errs[r] = red.BackwardAllReduce(g, r, grad); errs[r] != nil {
				return
			}
			out[r] = net.FlattenGrads(nil)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return out
}

// clustered builds a Topology with counts[j] consecutive ranks on node j.
func clustered(t *testing.T, counts ...int) collective.Topology {
	t.Helper()
	var place []topology.GPUID
	for node, c := range counts {
		for i := 0; i < c; i++ {
			place = append(place, topology.GPUID{Node: node, Index: i})
		}
	}
	topo, err := collective.NewClustered(place)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func expectBits(t *testing.T, label string, rank int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s rank %d: length %d, want %d", label, rank, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s rank %d elem %d: %v, want %v", label, rank, i, got[i], want[i])
		}
	}
}

// TestDefaultMatchesAllReduceMeanBitwise: with BucketElems == 0 the reducer
// must reproduce the historical Backward + FlattenGrads + AllReduceMean +
// LoadGrads sequence bit for bit — the call-site migration in worker and
// core cannot change training results.
func TestDefaultMatchesAllReduceMeanBitwise(t *testing.T) {
	const n = 4
	legacy := make([][]float64, n)
	{
		g, err := collective.NewGroup(n)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, n)
		for r := 0; r < n; r++ {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				net := buildNet(t)
				net.ZeroGrads()
				grad := lossGradOf(t, net, r)
				if errs[r] = net.Backward(grad); errs[r] != nil {
					return
				}
				flat := net.FlattenGrads(nil)
				if errs[r] = g.AllReduceMean(r, flat); errs[r] != nil {
					return
				}
				if errs[r] = net.LoadGrads(flat); errs[r] != nil {
					return
				}
				legacy[r] = net.FlattenGrads(nil)
			}()
		}
		wg.Wait()
		g.Close()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("legacy rank %d: %v", r, err)
			}
		}
	}
	bucketed := reducedGrads(t, collective.Flat(n), Config{})
	for r := 0; r < n; r++ {
		expectBits(t, "default-vs-legacy", r, bucketed[r], legacy[r])
	}
}

// TestBucketedMatchesPerBucketReference: with real bucketing, each bucket
// is an independent allreduce over its range; the reference
// order spec applied per bucket (then scaled by 1/n) must match the
// reducer bit for bit.
func TestBucketedMatchesPerBucketReference(t *testing.T) {
	const n, bucketElems = 4, 40
	raw := make([][]float64, n)
	for r := 0; r < n; r++ {
		raw[r] = rawGrads(t, r)
	}
	net := buildNet(t)
	plan := New(net, Config{BucketElems: bucketElems})
	defer plan.Close()
	if plan.NumBuckets() < 2 {
		t.Fatalf("bucket plan has %d buckets, want >= 2 (grad elements: %d)",
			plan.NumBuckets(), net.NumParams())
	}
	want := make([]float64, net.NumParams())
	for _, bk := range plan.buckets {
		segs := make([][]float64, n)
		for r := 0; r < n; r++ {
			segs[r] = raw[r][bk.lo:bk.hi]
		}
		ref, err := collective.ReferenceAllReduce(segs)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range ref {
			want[bk.lo+i] = v * (1 / float64(n))
		}
	}
	got := reducedGrads(t, collective.Flat(n), Config{BucketElems: bucketElems})
	for r := 0; r < n; r++ {
		expectBits(t, "bucketed-vs-reference", r, got[r], want)
	}
}

// TestBucketedOnHierarchicalGroup: bucketing composes with a group placed
// across two nodes; all ranks converge to one gradient, equal to the
// sequential mean within float tolerance.
func TestBucketedOnHierarchicalGroup(t *testing.T) {
	topo := clustered(t, 3, 3) // 6 ranks over 2 nodes
	n := topo.Ranks()
	mean := make([]float64, len(rawGrads(t, 0)))
	for r := 0; r < n; r++ {
		for i, v := range rawGrads(t, r) {
			mean[i] += v / float64(n)
		}
	}
	got := reducedGrads(t, topo, Config{BucketElems: 25})
	for r := 0; r < n; r++ {
		for i := range mean {
			if math.Abs(got[r][i]-mean[i]) > 1e-12 {
				t.Fatalf("rank %d elem %d: %v, want %v", r, i, got[r][i], mean[i])
			}
		}
		expectBits(t, "ranks-agree", r, got[r], got[0])
	}
}

// TestBucketSpansTagged: every bucket's allreduce span carries its bucket
// index, so a step's reductions can be read off a trace.
func TestBucketSpansTagged(t *testing.T) {
	const n = 2
	g, err := collective.NewGroup(n)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rec := telemetry.NewRecorder(clock.Wall{}, 64)
	reg := telemetry.NewRegistry()
	g.SetTelemetry(rec, reg, clock.Wall{}, "inproc")
	got := make([][]float64, n)
	var wg sync.WaitGroup
	numBuckets := 0
	var mu sync.Mutex
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			net := buildNet(t)
			red := New(net, Config{BucketElems: 40})
			defer red.Close()
			mu.Lock()
			numBuckets = red.NumBuckets()
			mu.Unlock()
			net.ZeroGrads()
			grad := lossGradOf(t, net, r)
			if err := red.BackwardAllReduce(g, r, grad); err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			got[r] = net.FlattenGrads(nil)
		}()
	}
	wg.Wait()
	if numBuckets < 2 {
		t.Fatalf("want >= 2 buckets, got %d", numBuckets)
	}
	seen := map[string]int{}
	for _, sr := range rec.Snapshot() {
		if sr.Name != "collective.allreduce" {
			continue
		}
		b, ok := sr.Attr("bucket")
		if !ok {
			t.Fatalf("allreduce span without bucket tag: %+v", sr.Attrs)
		}
		seen[b]++
		if _, ok := sr.Attr("link"); !ok {
			t.Fatalf("allreduce span without link tag")
		}
	}
	if len(seen) != numBuckets {
		t.Fatalf("spans tag %d distinct buckets, want %d (%v)", len(seen), numBuckets, seen)
	}
	for b, count := range seen {
		if count != n {
			t.Fatalf("bucket %s has %d spans, want %d", b, count, n)
		}
	}
}

// TestBackwardSpansLeaveExchangesToComm: on a traced, bucketed step each
// rank gets one ddp.backward span per stretch of backward between buckets,
// and none of them covers a bucket's exchange, so step attribution counts
// the exchanges as comm rather than as compute. The owner's update gets
// one worker.optimize span, inside the last exchange.
func TestBackwardSpansLeaveExchangesToComm(t *testing.T) {
	const n = 2
	g, err := collective.NewGroup(n)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rec := telemetry.NewRecorder(clock.Wall{}, 256)
	g.SetTelemetry(rec, nil, clock.Wall{}, "inproc")
	buckets := make([]int, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := nn.NewReplica(rand.New(rand.NewSource(42)), testSizes, 0.05, 0.9)
			if err != nil {
				t.Error(err)
				return
			}
			red := New(rep.Net, Config{BucketElems: 40})
			buckets[r] = red.NumBuckets()
			rep.Net.ZeroGrads()
			grad := lossGradOf(t, rep.Net, r)
			step := rec.StartSpan("worker.rank_step")
			if err := red.BackwardStep(g, r, grad, rep, step.Context()); err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
			step.End()
		}()
	}
	wg.Wait()
	if buckets[0] < 2 {
		t.Fatalf("want >= 2 buckets, got %d", buckets[0])
	}
	byRank := map[string]map[string][]telemetry.SpanRecord{}
	for _, s := range rec.Snapshot() {
		rank, ok := s.Attr("rank")
		if !ok {
			continue
		}
		if byRank[rank] == nil {
			byRank[rank] = map[string][]telemetry.SpanRecord{}
		}
		byRank[rank][s.Name] = append(byRank[rank][s.Name], s)
	}
	for rank, spans := range byRank {
		bw, ar, opt := spans["ddp.backward"], spans["collective.allreduce"], spans["worker.optimize"]
		if len(bw) != buckets[0] || len(ar) != buckets[0] {
			t.Fatalf("rank %s: %d backward and %d allreduce spans, want %d each", rank, len(bw), len(ar), buckets[0])
		}
		if len(opt) != 1 {
			t.Fatalf("rank %s: %d optimize spans, want 1", rank, len(opt))
		}
		if last := ar[len(ar)-1]; opt[0].Start.Before(last.Start) || last.End.Before(opt[0].End) {
			t.Fatalf("rank %s: optimize [%v, %v] outside the last allreduce [%v, %v]", rank, opt[0].Start, opt[0].End, last.Start, last.End)
		}
		for _, b := range bw {
			for _, a := range ar {
				if b.Start.Before(a.End) && a.Start.Before(b.End) {
					t.Fatalf("rank %s: backward [%v, %v] overlaps allreduce [%v, %v]", rank, b.Start, b.End, a.Start, a.End)
				}
			}
		}
	}
	if len(byRank) != n {
		t.Fatalf("spans for %d ranks, want %d", len(byRank), n)
	}
}

// TestReducerSurvivesGroupSwap: one reducer steps across group
// reconstructions (the elastic adjustment pattern) — old group closed, new
// group of a different size passed to the next step.
func TestReducerSurvivesGroupSwap(t *testing.T) {
	net := buildNet(t)
	red := New(net, Config{})
	defer red.Close()
	for _, n := range []int{2, 1, 3} {
		g, err := collective.NewGroup(n)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, n)
		// Rank 0 uses the long-lived reducer; other ranks are throwaway.
		for r := 1; r < n; r++ {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				peerNet := buildNet(t)
				peer := New(peerNet, Config{})
				defer peer.Close()
				peerNet.ZeroGrads()
				grad := lossGradOf(t, peerNet, r)
				errs[r] = peer.BackwardAllReduce(g, r, grad)
			}()
		}
		net.ZeroGrads()
		grad := lossGradOf(t, net, 0)
		errs[0] = red.BackwardAllReduce(g, 0, grad)
		wg.Wait()
		g.Close()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("n=%d rank %d: %v", n, r, err)
			}
		}
	}
}

// TestReducerClosedGroup: stepping against a closed group surfaces
// ErrClosed and leaves the reducer reusable against a healthy group.
func TestReducerClosedGroup(t *testing.T) {
	net := buildNet(t)
	red := New(net, Config{})
	defer red.Close()
	g, err := collective.NewGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	net.ZeroGrads()
	grad := lossGradOf(t, net, 0)
	if err := red.BackwardAllReduce(g, 0, grad); err == nil {
		t.Fatal("step against closed group succeeded")
	}
	// Single-rank group: reduction is the identity, step must succeed.
	solo, err := collective.NewGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	net.ZeroGrads()
	grad = lossGradOf(t, net, 0)
	if err := red.BackwardAllReduce(solo, 0, grad); err != nil {
		t.Fatalf("step after recovery: %v", err)
	}
}

// TestReducerCloseIdempotent covers the lifecycle corners: closing twice,
// closing a never-started reducer, and stepping after close.
func TestReducerCloseIdempotent(t *testing.T) {
	never := New(buildNet(t), Config{})
	never.Close()
	never.Close()
	used := New(buildNet(t), Config{})
	solo, err := collective.NewGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	used.net.ZeroGrads()
	grad := lossGradOf(t, used.net, 0)
	if err := used.BackwardAllReduce(solo, 0, grad); err != nil {
		t.Fatal(err)
	}
	used.Close()
	used.Close()
	if err := used.BackwardAllReduce(solo, 0, grad); err == nil {
		t.Fatal("step after Close succeeded")
	}
}

// TestReducerStepZeroAllocs: after workspaces and arenas warm up, a full
// backward + bucketed allreduce + load step allocates nothing.
func TestReducerStepZeroAllocs(t *testing.T) {
	stepZeroAllocs(t, "bucketed step", func(red *Reducer, rep *nn.Replica, g *collective.Group, rank int, grad *tensor.Matrix) error {
		return red.BackwardAllReduce(g, rank, grad)
	})
}

// TestBackwardStepZeroAllocs: the training step — backward, bucketed
// reduce-scatter and the owners' update and hand-out inside the last
// exchange — allocates nothing either: its commit hook is cached.
func TestBackwardStepZeroAllocs(t *testing.T) {
	stepZeroAllocs(t, "training step", func(red *Reducer, rep *nn.Replica, g *collective.Group, rank int, grad *tensor.Matrix) error {
		return red.BackwardStep(g, rank, grad, rep, telemetry.TraceContext{})
	})
}

// stepZeroAllocs measures rank 0's allocations for forward, loss and
// step on a bucketed 2-rank group, rank 1 stepping alongside.
func stepZeroAllocs(t *testing.T, what string, step func(red *Reducer, rep *nn.Replica, g *collective.Group, rank int, grad *tensor.Matrix) error) {
	t.Helper()
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race CI job")
	}
	const n = 2
	g, err := collective.NewGroup(n)
	if err != nil {
		t.Fatal(err)
	}
	replica := func() *nn.Replica {
		rep, err := nn.NewReplica(rand.New(rand.NewSource(42)), testSizes, 0.05, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	peer := replica()
	go func() {
		defer wg.Done()
		net := peer.Net
		red := New(net, Config{BucketElems: 40})
		defer red.Close()
		x, labels := batchFor(t, 1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			net.ZeroGrads()
			logits, err := net.Forward(x)
			if err != nil {
				return
			}
			_, grad, err := net.SoftmaxLoss(logits, labels)
			if err != nil {
				return
			}
			if err := step(red, peer, g, 1, grad); err != nil {
				return
			}
		}
	}()
	rep := replica()
	net := rep.Net
	red := New(net, Config{BucketElems: 40})
	defer red.Close()
	x, labels := batchFor(t, 0)
	run := func() {
		net.ZeroGrads()
		logits, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		_, grad, err := net.SoftmaxLoss(logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		if err := step(red, rep, g, 0, grad); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	avg := testing.AllocsPerRun(50, run)
	close(stop)
	g.Close()
	wg.Wait()
	if avg != 0 {
		t.Fatalf("%v allocs per %s, want 0", avg, what)
	}
}
