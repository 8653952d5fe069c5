package worker

import (
	"context"
	"errors"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/checkpoint"
	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/collective"
	"github.com/elan-sys/elan/internal/coord"
	"github.com/elan-sys/elan/internal/replication"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/topology"
	"github.com/elan-sys/elan/internal/transport"
)

// waitReady blocks, without stepping the fleet, until every joiner of the
// pending adjustment has reported: the next Step then admits them. Scripts
// built on it take the same number of Steps every run.
func waitReady(t *testing.T, f *Fleet) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		f.mu.Lock()
		ready := f.am != nil && f.am.State() == coord.Ready
		f.mu.Unlock()
		if ready {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("joiners never reported ready")
		}
		time.Sleep(time.Millisecond)
	}
}

// scaleOutNow requests n more workers and admits them with exactly one Step.
func scaleOutNow(t *testing.T, f *Fleet, n int) {
	t.Helper()
	want := f.NumWorkers() + n
	if err := f.RequestScaleOut(n); err != nil {
		t.Fatalf("RequestScaleOut(%d): %v", n, err)
	}
	waitReady(t, f)
	if _, err := f.Step(); err != nil {
		t.Fatalf("admitting Step: %v", err)
	}
	if got := f.NumWorkers(); got != want {
		t.Fatalf("%d workers after the admitting Step, want %d", got, want)
	}
}

func steps(t *testing.T, f *Fleet, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		loss, err := f.Step()
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("loss %v", loss)
		}
	}
}

// wantNoEndpoint asserts that nothing answers to name on the bus any more.
func wantNoEndpoint(t *testing.T, probe *transport.Endpoint, name string) {
	t.Helper()
	if _, err := probe.CallCtx(context.Background(), name, "ping", nil); !errors.Is(err, transport.ErrNoEndpoint) {
		t.Errorf("call to %s = %v, want ErrNoEndpoint", name, err)
	}
}

// waitGoroutines polls until the goroutine count is back at want.
func waitGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRetiredAgentsLeaveTheBus: every joiner registers a bus endpoint to
// report through; scale-in must take it off the bus with the agent, or a
// churning fleet leaks one endpoint per agent it ever admitted. After each
// scale-out/scale-in round the retired names are unknown to the bus and the
// fleet is back at its baseline goroutine count.
func TestRetiredAgentsLeaveTheBus(t *testing.T) {
	guardGoroutines(t)
	bus := transport.NewBus(transport.DefaultBusConfig())
	t.Cleanup(bus.Close)
	f := fleet(t, 2, 24, bus)
	probe, err := bus.Endpoint("probe", nil)
	if err != nil {
		t.Fatal(err)
	}
	steps(t, f, 1)
	baseline := runtime.NumGoroutine()
	for round := 0; round < 4; round++ {
		scaleOutNow(t, f, 2)
		f.mu.Lock()
		joined := []string{f.agents[2].Name, f.agents[3].Name}
		f.mu.Unlock()
		for _, name := range joined {
			if _, err := probe.CallCtx(context.Background(), name, "ping", nil); errors.Is(err, transport.ErrNoEndpoint) {
				t.Fatalf("admitted agent %s has no endpoint", name)
			}
		}
		if err := f.RequestScaleIn(2); err != nil {
			t.Fatal(err)
		}
		steps(t, f, 1)
		if got := f.NumWorkers(); got != 2 {
			t.Fatalf("%d workers after scale-in, want 2", got)
		}
		for _, name := range joined {
			wantNoEndpoint(t, probe, name)
		}
		waitGoroutines(t, baseline, "after scale-in")
	}

	// A spawned agent that Close stops before it was ever admitted leaves
	// the bus too (the bus is injected, so it outlives the fleet).
	if err := f.RequestScaleOut(1); err != nil {
		t.Fatal(err)
	}
	waitReady(t, f) // its report landed, so its endpoint exists
	f.mu.Lock()
	var pending string
	for name := range f.spawned {
		pending = name
	}
	active := []string{f.agents[0].Name, f.agents[1].Name}
	f.mu.Unlock()
	f.Close()
	for _, name := range append(active, pending) {
		wantNoEndpoint(t, probe, name)
	}
}

// TestScaleOutAllOrNothing: a joiner that dies between its ready report and
// its admission fails the admitting Step, and the fleet is then exactly as
// before the adjustment — no joiner of the adjustment survives in any list
// (so none outlives Close), the GPU reservation is the old one, the old
// group keeps training — with a rollback event on the apply span.
func TestScaleOutAllOrNothing(t *testing.T) {
	guardGoroutines(t)
	bus := transport.NewBus(transport.DefaultBusConfig())
	t.Cleanup(bus.Close)
	cl := smallCluster(t) // 4 GPUs
	rec := telemetry.NewRecorder(clock.Wall{}, 0)
	f, err := NewFleet(FleetConfig{
		Dataset: dataset(t, 1024), LayerSizes: []int{4, 16, 3}, Workers: 2, TotalBatch: 24,
		LR: 0.05, Momentum: 0.9, Seed: 21, Bus: bus, Cluster: cl, Tracer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	probe, err := bus.Endpoint("probe", nil)
	if err != nil {
		t.Fatal(err)
	}
	steps(t, f, 2)
	before := exportState(t, f)
	baseline := runtime.NumGoroutine()

	if err := f.RequestScaleOut(2); err != nil {
		t.Fatal(err)
	}
	waitReady(t, f)
	f.mu.Lock()
	f.spawned["agent-3"].agent.kill() // the second joiner: the first installs fine
	f.mu.Unlock()

	if _, err := f.Step(); !errors.Is(err, errAgentDead) {
		t.Fatalf("admitting Step = %v, want the dead joiner's error", err)
	}
	if got := f.NumWorkers(); got != 2 {
		t.Fatalf("%d workers after the failed admission, want 2", got)
	}
	if free := cl.NumFree(); free != 2 {
		t.Fatalf("%d GPUs free after rollback, want 2 (the old reservation)", free)
	}
	f.mu.Lock()
	orphans := len(f.spawned)
	f.mu.Unlock()
	if orphans != 0 {
		t.Fatalf("%d joiners still awaiting admission after rollback", orphans)
	}
	wantNoEndpoint(t, probe, "agent-2")
	wantNoEndpoint(t, probe, "agent-3")
	waitGoroutines(t, baseline, "after rollback")
	if got := exportState(t, f); !slices.Equal(got, before) {
		t.Fatal("the failed admission changed the lead replica")
	}
	var rolledBack bool
	for _, sp := range rec.Snapshot() {
		if sp.Name != "worker.apply_adjustment" {
			continue
		}
		for _, ev := range sp.Events {
			rolledBack = rolledBack || ev.Name == "rollback"
		}
	}
	if !rolledBack {
		t.Fatal("no rollback event on the apply span")
	}

	// The old group trains on, and a fresh adjustment goes through.
	steps(t, f, 2)
	if !f.ReplicasConsistent() {
		t.Fatal("replicas diverged after rollback")
	}
	scaleOutNow(t, f, 2)
	steps(t, f, 1)
	if free := cl.NumFree(); free != 0 {
		t.Fatalf("%d GPUs free with 4 workers placed, want 0", free)
	}
	if !f.ReplicasConsistent() {
		t.Fatal("replicas diverged after the second admission")
	}
}

// TestScaleOutBeyondClusterKeepsReservation: an admission the cluster has
// no room for fails before anything moved and leaves the old reservation
// in place.
func TestScaleOutBeyondClusterKeepsReservation(t *testing.T) {
	guardGoroutines(t)
	cl := smallCluster(t) // 4 GPUs
	f, err := NewFleet(FleetConfig{
		Dataset: dataset(t, 1024), LayerSizes: []int{4, 16, 3}, Workers: 2, TotalBatch: 24,
		LR: 0.05, Momentum: 0.9, Seed: 21, Cluster: cl,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	if err := f.RequestScaleOut(4); err != nil { // 6 workers on 4 GPUs
		t.Fatal(err)
	}
	waitReady(t, f)
	if _, err := f.Step(); err == nil {
		t.Fatal("admission beyond the cluster's capacity succeeded")
	}
	if free := cl.NumFree(); free != 2 {
		t.Fatalf("%d GPUs free after the refused admission, want 2", free)
	}
	steps(t, f, 2)
	if got := f.NumWorkers(); got != 2 {
		t.Fatalf("%d workers, want 2", got)
	}
}

// TestUninstalledJoinerRefusesToStep: a joiner's rig holds nothing to train
// from until replication fills it — zeros when the rig is new, its previous
// owner's state and gradients when it is recycled. Handed a step before that
// it must refuse rather than train, without touching the rig, and a failed
// install does not count.
func TestUninstalledJoinerRefusesToStep(t *testing.T) {
	guardGoroutines(t)
	ds := dataset(t, 64)
	sizes := []int{4, 8, 3}
	g, err := collective.NewGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	step := command{rank: 0, n: 1, lo: 0, hi: 8, lr: 0.05, group: g}
	src, err := newAgent("seeded", 1, sizes, 0.05, 0.9, 0, ds)
	if err != nil {
		t.Fatal(err)
	}
	defer src.stop()

	// A rig that trained under another agent, from another seed.
	prev, err := newAgent("previous", 2, sizes, 0.05, 0.9, 0, ds)
	if err != nil {
		t.Fatal(err)
	}
	if r := prev.send(step); r.err != nil {
		t.Fatal(r.err)
	}
	used := prev.rig
	prev.stop()
	blank, err := newRig(nil, sizes, 0.05, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}

	joiners := map[string]*Agent{}
	for name, r := range map[string]*rig{"new rig": blank, "recycled rig": used} {
		joiner := launchAgent("joiner", r, false, ds)
		joiners[name] = joiner
		defer joiner.stop()
		before := slices.Clone(joiner.rep.State())
		if r := joiner.send(step); !errors.Is(r.err, errNoState) {
			t.Fatalf("%s: step on an uninstalled joiner = %v, want errNoState", name, r.err)
		}
		if err := joiner.install(src.rep.State()[1:], src.Name, inprocLink, nil, telemetry.TraceContext{}); err == nil {
			t.Fatalf("%s: short state installed", name)
		}
		if r := joiner.send(step); !errors.Is(r.err, errNoState) {
			t.Fatalf("%s: step after a failed install = %v, want errNoState", name, r.err)
		}
		if !slices.Equal(joiner.rep.State(), before) {
			t.Fatalf("%s: refused steps touched the replica", name)
		}
		if err := joiner.install(src.rep.State(), src.Name, inprocLink, nil, telemetry.TraceContext{}); err != nil {
			t.Fatal(err)
		}
		if r := joiner.send(step); r.err != nil {
			t.Fatalf("%s: step after install: %v", name, r.err)
		}
	}
	if r := src.send(step); r.err != nil {
		t.Fatal(r.err)
	}
	for name, joiner := range joiners {
		if !slices.Equal(joiner.rep.State(), src.rep.State()) {
			t.Fatalf("%s: installed joiner trained differently from its source", name)
		}
	}
}

// tickClock is a logical clock for span timestamps: every reading is one
// tick after the previous, whichever goroutine takes it, so span intervals
// order events across goroutines without reference to wall time.
type tickClock struct {
	clock.Wall
	ticks atomic.Int64
}

func (c *tickClock) Now() time.Time { return time.Unix(0, c.ticks.Add(1)) }

// twoNodeCluster is 2 nodes x 2 sockets x 2 GPUs. Two founding workers sit
// on node 0 socket 0; six joiners fill node 0 socket 1 (reached over the
// socket link, one contention domain) and node 1 (over the NICs, another).
func twoNodeCluster(t *testing.T) *topology.Cluster {
	t.Helper()
	geom := topology.DefaultGeometry()
	geom.Nodes, geom.SocketsPerNode, geom.SwitchesPerSock, geom.GPUsPerSwitch = 2, 2, 1, 2
	c, err := topology.NewCluster(geom)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func placedFleet(t *testing.T, hidden int, tr *telemetry.Recorder, ckpt *checkpoint.DeltaStore) *Fleet {
	t.Helper()
	f, err := NewFleet(FleetConfig{
		Dataset: dataset(t, 2048), LayerSizes: []int{4, hidden, 3}, Workers: 2, TotalBatch: 56,
		LR: 0.05, Momentum: 0.9, Seed: 21, Cluster: twoNodeCluster(t), Tracer: tr,
		Checkpoints: ckpt, BucketElems: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// TestScaleOutFollowsReplicationPlan scales 2 -> 8 on the two-node cluster
// and checks the installs against the planner: each joiner copied from the
// source, over the link, the plan names; and no two installs sharing a
// contention key were ever in flight together (a max-in-flight count per
// key, taken from span intervals on a logical clock).
func TestScaleOutFollowsReplicationPlan(t *testing.T) {
	guardGoroutines(t)
	rec := telemetry.NewRecorder(&tickClock{}, 0)
	// Wide enough that an install takes a while: installs that wrongly ran
	// together would overlap, not slip past each other.
	f := placedFleet(t, 8192, rec, nil)
	steps(t, f, 2)
	scaleOutNow(t, f, 6)
	steps(t, f, 1)
	if !f.ReplicasConsistent() {
		t.Fatal("replicas diverged after the planned installs")
	}

	f.mu.Lock()
	ids := topology.IDsOf(f.gpus)
	names := make([]string, len(f.agents))
	for i, a := range f.agents {
		names[i] = a.Name
	}
	f.mu.Unlock()
	plan, err := replication.NewPlan(ids[:2], ids[2:], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	type want struct{ src, link, key string }
	wants := map[string]want{}
	keys := map[string]bool{}
	for i, pair := range plan.Pairs {
		wants[names[2+i]] = want{names[slices.Index(ids, pair.Source)], pair.Level.String(), pair.Contention}
		keys[pair.Contention] = true
	}
	if len(keys) < 2 || keys[""] {
		t.Fatalf("contention keys %v: the geometry should give two contended domains", keys)
	}

	type edge struct {
		at    time.Time
		delta int
	}
	edges := map[string][]edge{}
	installs := 0
	for _, sp := range rec.Snapshot() {
		if sp.Name != "worker.install_state" {
			continue
		}
		installs++
		w, ok := wants[sp.Proc]
		if !ok {
			t.Fatalf("install span on %q, not a joiner", sp.Proc)
		}
		if src, _ := sp.Attr("src"); src != w.src {
			t.Errorf("%s installed from %q, plan says %q", sp.Proc, src, w.src)
		}
		if link, _ := sp.Attr("link"); link != w.link {
			t.Errorf("%s installed over %q, plan says %q", sp.Proc, link, w.link)
		}
		edges[w.key] = append(edges[w.key], edge{sp.Start, +1}, edge{sp.End, -1})
	}
	if installs != 6 {
		t.Fatalf("%d install spans, want 6", installs)
	}
	for key, es := range edges {
		sort.Slice(es, func(i, j int) bool { return es[i].at.Before(es[j].at) })
		inFlight, peak := 0, 0
		for _, e := range es {
			inFlight += e.delta
			peak = max(peak, inFlight)
		}
		if peak != 1 {
			t.Errorf("%d installs sharing %q in flight together", peak, key)
		}
	}
}

// elasticOps are the three operations that move replicated state, as the
// fleet performs them or as the reference below does.
type elasticOps struct {
	scaleOut func(n int)
	rejoin   func(name string)
	restore  func()
}

// fleetOps drives the fleet's own paths: planner-driven concurrent installs
// on admission, rejoin and restore.
func fleetOps(t *testing.T, f *Fleet) elasticOps {
	return elasticOps{
		scaleOut: func(n int) { scaleOutNow(t, f, n) },
		rejoin: func(name string) {
			if err := f.RejoinWorker(name); err != nil {
				t.Fatalf("RejoinWorker: %v", err)
			}
		},
		restore: func() {
			if _, err := f.RestoreCheckpoint(); err != nil {
				t.Fatalf("RestoreCheckpoint: %v", err)
			}
		},
	}
}

// referenceOps is the plain way to move the state, kept as the oracle:
// agent 0 (or the cold-restored checkpoint) is the only source and the
// targets copy from it one after another.
func referenceOps(t *testing.T, f *Fleet, ckpt *checkpoint.DeltaStore) elasticOps {
	// admit installs into the joiners one after another, then resizes the
	// fleet onto them as agents that already hold the state: nothing joins.
	admit := func(joiners []*Agent) {
		for _, a := range joiners {
			if err := a.install(f.agents[0].rep.State(), f.agents[0].Name, inprocLink, nil, telemetry.TraceContext{}); err != nil {
				t.Fatalf("reference install: %v", err)
			}
		}
		if err := f.resizeLocked(slices.Concat(f.agents, joiners), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	start := func(name string) *Agent {
		a, err := f.startOn(name, f.takeSpareLocked(), true, nil)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	return elasticOps{
		scaleOut: func(n int) {
			func() {
				f.mu.Lock()
				defer f.mu.Unlock()
				var joiners []*Agent
				for i := 0; i < n; i++ {
					joiners = append(joiners, start(f.nextName()))
				}
				admit(joiners)
			}()
			steps(t, f, 1) // the fleet's own path spends one Step admitting
		},
		rejoin: func(name string) {
			f.mu.Lock()
			defer f.mu.Unlock()
			admit([]*Agent{start(name)})
		},
		restore: func() {
			f.mu.Lock()
			defer f.mu.Unlock()
			_, n, _ := ckpt.Head(ckptName)
			state := make([]float64, n)
			hdrB, _, err := ckpt.RestoreFrom(ckptName, state, 0)
			if err != nil {
				t.Fatal(err)
			}
			h, err := DecodeCheckpointHeader(hdrB)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range f.agents {
				if err := a.install(state, "checkpoint", inprocLink, nil, telemetry.TraceContext{}); err != nil {
					t.Fatal(err)
				}
			}
			f.iter, f.lrSched = h.Iter, &h.LR
			if err := f.loader.SetCursor(h.Cursor); err != nil {
				t.Fatal(err)
			}
		},
	}
}

// runElasticScript is one fixed elastic job: grow 2 -> 8, lose and regain a
// worker, lose the AM and roll back to the last checkpoint, shrink again.
// It returns a hash of the lead replica's final state bits.
func runElasticScript(t *testing.T, f *Fleet, ops elasticOps) uint64 {
	t.Helper()
	steps(t, f, 3)
	ops.scaleOut(6)
	steps(t, f, 2)
	f.mu.Lock()
	victim := f.agents[len(f.agents)-1].Name
	f.mu.Unlock()
	if err := f.CrashWorker(victim); err != nil {
		t.Fatal(err)
	}
	steps(t, f, 1) // sweeps the dead rank out: 7 workers
	ops.rejoin(victim)
	steps(t, f, 2)
	if _, err := f.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	steps(t, f, 2)
	if _, err := f.CrashAM(); err != nil {
		t.Fatal(err)
	}
	steps(t, f, 1) // trains through the outage
	if err := f.RecoverAM(); err != nil {
		t.Fatal(err)
	}
	ops.restore()
	steps(t, f, 2)
	if err := f.RequestScaleIn(6); err != nil {
		t.Fatal(err)
	}
	steps(t, f, 2)
	if got := f.NumWorkers(); got != 2 {
		t.Fatalf("%d workers at the end of the script, want 2", got)
	}
	if !f.ReplicasConsistent() {
		t.Fatal("replicas diverged")
	}
	h := fnv.New64a()
	var b [8]byte
	for _, v := range exportState(t, f) {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// fixedScriptHash is the state hash the fixed elastic script ends on. A
// change that moves the trained bits re-pins it and says so.
const fixedScriptHash = 0xcb20d2093af10035

// TestPlannedInstallsMatchSequentialSingleSource: where a joiner copies its
// state from, and how many copy at once, must not show in the result. The
// same elastic script — scale-out, crash and rejoin, AM crash and
// restore — ends bit-identical whether state moved the fleet's way or the
// reference's, and on fixedScriptHash.
func TestPlannedInstallsMatchSequentialSingleSource(t *testing.T) {
	guardGoroutines(t)
	ckpt := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{})
	planned := placedFleet(t, 4096, nil, ckpt) // wide enough for concurrent installs
	got := runElasticScript(t, planned, fleetOps(t, planned))

	refCkpt := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{})
	ref := placedFleet(t, 4096, nil, refCkpt)
	want := runElasticScript(t, ref, referenceOps(t, ref, refCkpt))
	if got != want {
		t.Fatalf("final state hash %x, the sequential single-source reference ends at %x", got, want)
	}
	if got != fixedScriptHash {
		t.Fatalf("final state hash %x, pinned at %x", got, uint64(fixedScriptHash))
	}
}
