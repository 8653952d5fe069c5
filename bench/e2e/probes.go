package main

// probes.go times each layer from outside, through its public functions,
// at the workload's own shapes: per-worker batch, gradient length, rank
// count, topology, state size. It holds every internal/* import of the
// traced run; the gated driver goes through adapter.go alone. Probe rows
// are never gated.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/elan-sys/elan/internal/checkpoint"
	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/collective"
	"github.com/elan-sys/elan/internal/coord"
	"github.com/elan-sys/elan/internal/ddp"
	"github.com/elan-sys/elan/internal/nn"
	"github.com/elan-sys/elan/internal/store"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/tensor"
	"github.com/elan-sys/elan/internal/topology"
	"github.com/elan-sys/elan/internal/transport"
)

// probeBudget bounds one probe: it stops at minIters iterations or after
// maxTime, whichever comes first.
type probeBudget struct {
	minIters int
	maxTime  time.Duration
}

var (
	fullProbes  = probeBudget{minIters: 200, maxTime: 400 * time.Millisecond}
	quickProbes = probeBudget{minIters: 3, maxTime: 20 * time.Millisecond}
)

// measure calls fn in batches of batch calls and returns the median time
// of one call.
func (b probeBudget) measure(batch int, fn func() error) (time.Duration, error) {
	if err := fn(); err != nil { // warm-up, untimed
		return 0, err
	}
	var samples []float64
	for start := now(); len(samples)*batch < b.minIters && (len(samples) < 3 || since(start) < b.maxTime); {
		t0 := now()
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		samples = append(samples, float64(since(t0).Nanoseconds())/float64(batch))
	}
	return time.Duration(median(samples)), nil
}

// gang is n resident goroutines standing in for a fleet's ranks: run hands
// every rank the same function and returns when the slowest has finished,
// which is what a training step waits for.
type gang struct {
	work []chan func(rank int) error
	errs chan error
	wg   sync.WaitGroup
}

func newGang(n int) *gang {
	g := &gang{work: make([]chan func(int) error, n), errs: make(chan error, n)}
	for r := range g.work {
		g.work[r] = make(chan func(int) error)
		g.wg.Add(1)
		go func(r int) {
			defer g.wg.Done()
			for fn := range g.work[r] {
				g.errs <- fn(r)
			}
		}(r)
	}
	return g
}

func (g *gang) run(fn func(rank int) error) error {
	for _, c := range g.work {
		c <- fn
	}
	var first error
	for range g.work {
		if err := <-g.errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (g *gang) close() {
	for _, c := range g.work {
		close(c)
	}
	g.wg.Wait()
}

// rankState is one rank's replica and step workspace.
type rankState struct {
	net  *nn.MLP
	opt  *nn.SGD
	red  *ddp.Reducer
	x    *tensor.Matrix
	y    []int
	grad *tensor.Matrix
}

// groupTopology mirrors Fleet.rebuildGroupLocked: n GPUs reserved in tree
// order on the workload's cluster, flat without one.
func groupTopology(kind clusterKind, n int) (collective.Topology, string, error) {
	if kind == noCluster {
		return collective.Flat(n), "inproc", nil
	}
	cl, err := newCluster(kind)
	if err != nil {
		return nil, "", err
	}
	gpus, err := cl.Reserve(n)
	if err != nil {
		return nil, "", err
	}
	ct, err := collective.NewClustered(topology.IDsOf(gpus))
	if err != nil {
		return nil, "", err
	}
	return ct, collective.LinkLabelOf(ct), nil
}

// probeResults maps per-layer metric names to values.
type probeResults map[string]float64

// runProbes measures every layer at w's shapes.
func runProbes(w workload, seed int64, ds *dataset, b probeBudget) (probeResults, error) {
	res := probeResults{}
	for _, probe := range []func(workload, int64, *dataset, probeBudget, probeResults) error{
		probeKernels, probeStepLayers, probeControlPlane, probeTransport, probeCheckpoint, probeTelemetry,
	} {
		if err := probe(w, seed, ds, b, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// probeKernels times the widest layer's forward product at the per-worker
// batch: (batch x in) . (in x out).
func probeKernels(w workload, seed int64, _ *dataset, b probeBudget, res probeResults) error {
	widest := 0
	for i := 0; i+1 < len(w.layers); i++ {
		if w.layers[i]*w.layers[i+1] > w.layers[widest]*w.layers[widest+1] {
			widest = i
		}
	}
	m, k, n := w.totalBatch/w.workers, w.layers[widest], w.layers[widest+1]
	rng := rand.New(rand.NewSource(seed))
	a, bm, dst := tensor.MustNew(m, k), tensor.MustNew(k, n), tensor.MustNew(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range bm.Data {
		bm.Data[i] = rng.NormFloat64()
	}
	d, err := b.measure(1, func() error { return tensor.MatMulInto(dst, a, bm) })
	if err != nil {
		return err
	}
	res["tensor.matmul_ms"] = ms(d)
	res["tensor.matmul_gflops"] = 2 * float64(m) * float64(n) * float64(k) / float64(d.Nanoseconds())
	return nil
}

// probeStepLayers times the parts of a training step — batch load,
// forward, backward, optimizer, gradient exchange — with all of the
// workload's ranks running the part at once, as they do inside Fleet.Step:
// ranks share the processors and the tensor pool, so a part's cost to the
// step is the wall time until the slowest rank is through it.
func probeStepLayers(w workload, seed int64, ds *dataset, b probeBudget, res probeResults) error {
	n, per := w.workers, w.totalBatch/w.workers
	topo, link, err := groupTopology(w.cluster, n)
	if err != nil {
		return err
	}
	group, err := collective.NewGroupWithTopology(topo)
	if err != nil {
		return err
	}
	defer group.Close()
	ranks := make([]*rankState, n)
	for r := range ranks {
		net, err := nn.NewMLP(rand.New(rand.NewSource(seed)), w.layers)
		if err != nil {
			return err
		}
		opt, err := nn.NewSGD(net.Params(), w.lr, 0.9)
		if err != nil {
			return err
		}
		rs := &rankState{net: net, opt: opt, red: ddp.New(net, ddp.Config{BucketElems: w.bucketElems}),
			x: tensor.MustNew(per, ds.Features), y: make([]int, per)}
		defer rs.red.Close()
		ranks[r] = rs
	}
	g := newGang(n)
	defer g.close()

	load := func(r int) error { return ds.BatchInto(ranks[r].x, ranks[r].y, r*per, (r+1)*per) }
	forward := func(r int) error {
		rs := ranks[r]
		rs.net.ZeroGrads()
		out, err := rs.net.Forward(rs.x)
		if err != nil {
			return err
		}
		_, rs.grad, err = rs.net.SoftmaxLoss(out, rs.y)
		return err
	}
	// One real step first, so backward and the optimizer see ReLU patterns
	// and momentum of a network in training rather than at initialization.
	for _, part := range []func(int) error{load, forward,
		func(r int) error { return ranks[r].red.BackwardAllReduce(group, r, ranks[r].grad) },
		func(r int) error { return ranks[r].opt.Step(ranks[r].net.Params(), ranks[r].net.Grads()) },
	} {
		if err := g.run(part); err != nil {
			return err
		}
	}

	d, err := b.measure(1, func() error { return g.run(load) })
	if err != nil {
		return err
	}
	res["data.batch_into_us"] = us(d)
	if d, err = b.measure(1, func() error { return g.run(forward) }); err != nil {
		return err
	}
	res["nn.forward_ms"] = ms(d)
	backward, err := b.measure(1, func() error {
		return g.run(func(r int) error { return ranks[r].net.Backward(ranks[r].grad) })
	})
	if err != nil {
		return err
	}
	res["nn.backward_ms"] = ms(backward)
	if d, err = b.measure(1, func() error {
		return g.run(func(r int) error { return ranks[r].opt.Step(ranks[r].net.Params(), ranks[r].net.Grads()) })
	}); err != nil {
		return err
	}
	res["nn.opt_step_ms"] = ms(d)

	exchange, err := b.measure(1, func() error {
		return g.run(func(r int) error { return ranks[r].red.BackwardAllReduce(group, r, ranks[r].grad) })
	})
	if err != nil {
		return err
	}
	res["ddp.backward_allreduce_ms"] = ms(exchange)
	buckets := ranks[0].red.NumBuckets()
	res["ddp.buckets"] = float64(buckets)

	params := ranks[0].net.NumParams()
	vecs := make([][]float64, n)
	for r := range vecs {
		vecs[r] = make([]float64, params)
	}
	allreduce, err := b.measure(1, func() error {
		return g.run(func(r int) error { return group.AllReduce(r, vecs[r]) })
	})
	if err != nil {
		return err
	}
	res["collective.allreduce_ms"] = ms(allreduce)
	res["collective.bytes_per_step"] = float64(n * params * 8)
	res["collective.calls_per_step"] = float64(n * buckets)
	// The share of a bare allreduce that running it inside backward hid.
	hidden := 0.0
	if allreduce > 0 {
		hidden = 100 * float64(backward+allreduce-exchange) / float64(allreduce)
	}
	res["ddp.overlap_hidden_pct"] = min(max(hidden, 0), 100)

	if d, err = b.measure(1, func() error {
		t, _, err := groupTopology(w.cluster, n)
		if err != nil {
			return err
		}
		gr, err := collective.NewGroupWithTopology(t)
		if err != nil {
			return err
		}
		gr.SetTelemetry(nil, nil, clock.Wall{}, link)
		gr.Close()
		return nil
	}); err != nil {
		return err
	}
	res["collective.group_rebuild_us"] = us(d)
	return nil
}

// probeControlPlane times the AM over the bus and the store beneath it.
func probeControlPlane(w workload, _ int64, _ *dataset, b probeBudget, res probeResults) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bus := transport.NewBus(transport.DefaultBusConfig())
	defer bus.Close()
	st := store.New()
	am, err := coord.NewAM("probe", st)
	if err != nil {
		return err
	}
	svc, err := coord.NewServiceCtx(ctx, am, bus, "probe-am")
	if err != nil {
		return err
	}
	defer svc.Close()
	lead, err := coord.NewClientCtx(ctx, bus, "probe-lead", "probe-am")
	if err != nil {
		return err
	}
	d, err := b.measure(1, func() error {
		_, _, err := lead.Coordinate()
		return err
	})
	if err != nil {
		return err
	}
	res["coord.coordinate_us"] = us(d)

	joiners := max(w.delta, -w.delta)
	names := make([]string, joiners)
	for i := range names {
		names[i] = fmt.Sprintf("probe-agent-%d", i)
	}
	if d, err = b.measure(1, func() error {
		if err := lead.RequestAdjustment(coord.ScaleOut, names, nil); err != nil {
			return err
		}
		for _, name := range names {
			if err := lead.ReportReady(name); err != nil {
				return err
			}
		}
		_, ok, err := lead.Coordinate()
		if err == nil && !ok {
			err = fmt.Errorf("adjustment not delivered")
		}
		return err
	}); err != nil {
		return err
	}
	res["coord.adjust_cycle_us"] = us(d)

	// Recovery of a populated store: an adjustment is pending, as it may
	// be when a real AM dies. Every Recover fences its predecessor.
	if err := lead.RequestAdjustment(coord.ScaleOut, names, nil); err != nil {
		return err
	}
	if d, err = b.measure(1, func() error {
		_, err := coord.Recover("probe", st)
		return err
	}); err != nil {
		return err
	}
	res["coord.recover_us"] = us(d)

	// The store at AM-state size: the value the AM persists on every
	// transition.
	keys := st.Keys()
	if len(keys) == 0 {
		return fmt.Errorf("AM persisted nothing")
	}
	entry, err := st.Get(keys[0])
	if err != nil {
		return err
	}
	value := append([]byte(nil), entry.Value...)
	bare := store.New()
	ver := bare.Put("am/probe", value)
	if d, err = b.measure(64, func() error {
		ver, err = bare.CAS("am/probe", ver, value)
		return err
	}); err != nil {
		return err
	}
	res["store.cas_us"] = us(d)
	buf := make([]byte, 0, 2*len(value))
	if d, err = b.measure(64, func() error {
		_, _, err := bare.GetInto("am/probe", buf[:0])
		return err
	}); err != nil {
		return err
	}
	res["store.get_us"] = us(d)
	return nil
}

// probeTransport times one echo call on the bus the fleet's control
// traffic crosses, and on the pooled TCP path no fleet uses yet. A host
// without loopback networking reports -1 for TCP rather than failing.
func probeTransport(_ workload, _ int64, _ *dataset, b probeBudget, res probeResults) error {
	echo := func(m transport.Message) ([]byte, error) { return m.Payload, nil }
	payload := make([]byte, 64)
	ctx := context.Background()

	bus := transport.NewBus(transport.DefaultBusConfig())
	defer bus.Close()
	if _, err := bus.Endpoint("probe-echo", echo); err != nil {
		return err
	}
	caller, err := bus.Endpoint("probe-caller", echo)
	if err != nil {
		return err
	}
	d, err := b.measure(1, func() error {
		_, err := caller.CallCtx(ctx, "probe-echo", "echo", payload)
		return err
	})
	if err != nil {
		return err
	}
	res["transport.bus_call_us"] = us(d)

	res["transport.tcp_call_us"] = -1
	srv := transport.NewServer(echo)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil
	}
	defer srv.Close()
	client := transport.NewClient(addr, transport.ClientConfig{})
	defer client.Close()
	if d, err = b.measure(1, func() error {
		_, err := client.Call(ctx, "echo", payload, 5*time.Second)
		return err
	}); err == nil {
		res["transport.tcp_call_us"] = us(d)
	}
	return nil
}

// probeCheckpoint times delta saves of a state that one optimizer step
// moved, and a warm restore that is one delta behind.
func probeCheckpoint(w workload, seed int64, ds *dataset, b probeBudget, res probeResults) error {
	net, err := nn.NewMLP(rand.New(rand.NewSource(seed)), w.layers)
	if err != nil {
		return err
	}
	opt, err := nn.NewSGD(net.Params(), w.lr, 0.9)
	if err != nil {
		return err
	}
	per := w.totalBatch / w.workers
	x, y := tensor.MustNew(per, ds.Features), make([]int, per)
	cursor := 0
	var state []float64
	train := func() error {
		if err := ds.BatchInto(x, y, cursor, cursor+per); err != nil {
			return err
		}
		cursor += per
		net.ZeroGrads()
		out, err := net.Forward(x)
		if err != nil {
			return err
		}
		_, grad, err := net.SoftmaxLoss(out, y)
		if err != nil {
			return err
		}
		if err := net.Backward(grad); err != nil {
			return err
		}
		if err := opt.Step(net.Params(), net.Grads()); err != nil {
			return err
		}
		state = opt.FlattenState(net.FlattenParams(state[:0]))
		return nil
	}

	cs := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{})
	samples := max(b.minIters/4, 3)
	var saveMs, bytes, share []float64
	// Training between samples is untimed; each sample times exactly one
	// Save of a state one step away from the last committed one.
	for start := now(); len(saveMs) < samples && (len(saveMs) < 3 || since(start) < 2*b.maxTime); {
		if err := train(); err != nil {
			return err
		}
		t0 := now()
		stats, err := cs.Save("probe", nil, state)
		el := since(t0)
		if err != nil {
			return err
		}
		saveMs = append(saveMs, ms(el))
		bytes = append(bytes, float64(stats.BytesWritten))
		share = append(share, 100*float64(stats.ChunksWritten)/float64(max(stats.ChunksTotal, 1)))
	}
	res["checkpoint.save_ms"] = median(saveMs)
	res["checkpoint.bytes_per_save"] = median(bytes)
	res["checkpoint.chunks_written_share"] = median(share)

	// Warm restore: hold the state as committed, commit one more delta,
	// then bring the held copy forward.
	var base, restoreMs []float64
	for start := now(); len(restoreMs) < samples && (len(restoreMs) < 3 || since(start) < 2*b.maxTime); {
		seq, ok := cs.LastSeq("probe")
		if !ok {
			return fmt.Errorf("no committed checkpoint")
		}
		base = append(base[:0], state...)
		if err := train(); err != nil {
			return err
		}
		if _, err := cs.Save("probe", nil, state); err != nil {
			return err
		}
		t0 := now()
		_, _, err := cs.RestoreFrom("probe", base, seq)
		el := since(t0)
		if err != nil {
			return err
		}
		restoreMs = append(restoreMs, ms(el))
	}
	res["checkpoint.restore_ms"] = median(restoreMs)
	return nil
}

// probeTelemetry times one recorded span (start, two annotations, end)
// and one flight-ring record.
func probeTelemetry(_ workload, _ int64, _ *dataset, b probeBudget, res probeResults) error {
	rec := telemetry.NewRecorder(clock.Wall{}, 0)
	i := 0
	d, err := b.measure(64, func() error {
		s := rec.StartSpan("worker.rank_step")
		s.SetProc("agent-0")
		s.AnnotateInt("rank", 0)
		s.AnnotateInt("iter", i)
		s.End()
		if i++; i%(telemetry.DefaultMaxSpans/2) == 0 {
			rec.Reset()
		}
		return nil
	})
	if err != nil {
		return err
	}
	res["telemetry.span_us"] = us(d)

	flight := telemetry.NewFlightRecorder(flightSlots)
	epoch := time.Unix(0, 0)
	srec := telemetry.SpanRecord{
		ID: 7, Parent: 3, Trace: 1, Proc: "agent-0", Name: "worker.rank_step",
		Start: epoch, End: epoch.Add(time.Millisecond),
		Attrs: []telemetry.Attr{{Key: "rank", Value: "0"}, {Key: "iter", Value: "12"}},
	}
	if d, err = b.measure(1024, func() error {
		flight.Record(srec)
		return nil
	}); err != nil {
		return err
	}
	res["telemetry.flight_record_ns"] = float64(d.Nanoseconds())
	runtime.KeepAlive(flight)
	return nil
}
