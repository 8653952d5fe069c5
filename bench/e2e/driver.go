package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"
)

// driver runs one fleet through cycles of a steady block and an elastic
// round, timing every call from outside and checking every post-state.
type driver struct {
	w   workload
	f   *fleet
	tel *telemetrySet // nil with telemetry off

	// traced turns the benchmark-side spans on; round is the current
	// cycle's root span, so one cycle is one trace.
	traced bool
	round  *span

	// yard is the host-speed yardstick of the current phase; tick runs it
	// between timed intervals, never inside one.
	yard *yardstick

	names  []string // active agents, in the fleet's rank order
	nextID int      // the fleet's next fresh agent number

	attempted, failed int
	ops               []string // op names in execution order

	steps, cycles int
	firstLoss     float64   // loss of the very first step, before any training
	stepMs        series    // steady-block steps
	awayStepMs    series    // plain steps at workers+delta
	admitSteps    []float64 // Steps from a scale-out request to its admission
	windows       series    // samples/s, one per block or cycle
	windowLoss    []float64 // mean loss of the steady block, one per cycle
	ev            map[string]*series
	busy          time.Duration // wall time inside timed windows
}

func newDriver(w workload, f *fleet, tel *telemetrySet, traced bool, yard *yardstick) *driver {
	d := &driver{w: w, f: f, tel: tel, traced: traced, yard: yard, nextID: w.workers, ev: newEventSeries()}
	for i := 0; i < w.workers; i++ {
		d.names = append(d.names, fmt.Sprintf("agent-%d", i))
	}
	return d
}

func newEventSeries() map[string]*series {
	ev := map[string]*series{}
	for _, e := range events {
		ev[e] = &series{}
	}
	return ev
}

// tick gives the yardstick its turn, if one is due.
func (d *driver) tick() {
	if !d.yard.due() {
		return
	}
	sp := d.round.Child("bench.yardstick")
	d.yard.tick()
	sp.End()
}

// op runs one operation against the fleet: it counts as attempted, and as
// failed if fn errors or check finds the wrong post-state.
func (d *driver) op(name string, fn func() error, check func() error) (time.Duration, error) {
	d.attempted++
	d.ops = append(d.ops, name)
	sp := d.round.Child("bench." + name)
	start := now()
	err := fn()
	el := since(start)
	sp.End()
	if err == nil && check != nil {
		err = check()
	}
	if err != nil {
		d.failed++
		err = fmt.Errorf("%s: %w", name, err)
	}
	return el, err
}

func (d *driver) wantWorkers(n int) func() error {
	return func() error {
		if got := d.f.NumWorkers(); got != n {
			return fmt.Errorf("%d workers, want %d", got, n)
		}
		return nil
	}
}

// step runs one Step that must leave want workers and a finite loss.
func (d *driver) step(want int) (time.Duration, float64, error) {
	var loss float64
	el, err := d.op("step", func() error {
		var err error
		loss, err = d.f.Step()
		return err
	}, func() error {
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			return fmt.Errorf("loss %v", loss)
		}
		return d.wantWorkers(want)()
	})
	d.steps++
	return el, loss, err
}

// maxAdmitSteps bounds the wait for a scale-out's ready reports: they are
// asynchronous, so admission takes one Step or a few, never this many.
const maxAdmitSteps = 200

// scaleOut requests n more workers and steps until they are admitted,
// recording the admitting Step (pause) and request-to-admission (admit).
func (d *driver) scaleOut(n int) error {
	from := len(d.names)
	t0 := now()
	if _, err := d.op("request_scale_out", func() error { return d.f.RequestScaleOut(n) }, nil); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		d.names = append(d.names, fmt.Sprintf("agent-%d", d.nextID))
		d.nextID++
	}
	for tries := 1; ; tries++ {
		var got int
		el, err := d.op("admit_step", func() error { _, err := d.f.Step(); return err }, func() error {
			switch got = d.f.NumWorkers(); {
			case got != from && got != from+n:
				return fmt.Errorf("%d workers during admission, want %d or %d", got, from, from+n)
			case got == from && tries == maxAdmitSteps:
				return fmt.Errorf("not admitted within %d steps", maxAdmitSteps)
			}
			return nil
		})
		d.steps++
		if err != nil {
			return err
		}
		if got == from+n {
			d.ev["scale_out_pause"].add(ms(el))
			d.ev["scale_out_admit"].add(ms(since(t0)))
			d.admitSteps = append(d.admitSteps, float64(tries))
			return nil
		}
	}
}

// scaleIn retires the last n workers; the next Step applies it.
func (d *driver) scaleIn(n int) error {
	if _, err := d.op("request_scale_in", func() error { return d.f.RequestScaleIn(n) }, nil); err != nil {
		return err
	}
	d.names = d.names[:len(d.names)-n]
	el, _, err := d.step(len(d.names))
	if err != nil {
		return err
	}
	d.ev["scale_in_pause"].add(ms(el))
	return nil
}

// adjust moves the fleet by delta workers, out or in.
func (d *driver) adjust(delta int) error {
	if delta > 0 {
		return d.scaleOut(delta)
	}
	return d.scaleIn(-delta)
}

// saveCheckpoint delta-saves the fleet's state, training stalled.
func (d *driver) saveCheckpoint() error {
	seq := d.f.CheckpointSeq()
	el, err := d.op("save_checkpoint", func() error { _, err := d.f.SaveCheckpoint(); return err }, func() error {
		if got := d.f.CheckpointSeq(); got <= seq {
			return fmt.Errorf("checkpoint seq %d after save, was %d", got, seq)
		}
		return nil
	})
	if err != nil {
		return err
	}
	d.ev["ckpt_save"].add(ms(el))
	d.tick()
	return nil
}

// elasticRound is the fixed script every workload shares: adjust away
// from the steady worker count, checkpoint, crash and rejoin the last
// worker, checkpoint again, lose and recover the AM, adjust back.
func (d *driver) elasticRound() error {
	if err := d.adjust(d.w.delta); err != nil {
		return err
	}
	away := len(d.names)
	d.tick()
	for i := 0; i < 2; i++ {
		el, _, err := d.step(away)
		if err != nil {
			return err
		}
		d.awayStepMs.add(ms(el))
		d.tick()
	}
	if err := d.saveCheckpoint(); err != nil {
		return err
	}

	victim := d.names[away-1]
	if _, err := d.op("crash_worker", func() error { return d.f.CrashWorker(victim) }, nil); err != nil {
		return err
	}
	t0 := now()
	if _, _, err := d.step(away - 1); err != nil { // sweeps the dead rank out
		return err
	}
	if _, err := d.op("rejoin_worker", func() error { return d.f.RejoinWorker(victim) }, d.wantWorkers(away)); err != nil {
		return err
	}
	if _, _, err := d.step(away); err != nil {
		return err
	}
	d.ev["rejoin"].add(ms(since(t0)))
	d.tick()

	if err := d.saveCheckpoint(); err != nil {
		return err
	}

	if _, err := d.op("crash_am", func() error { _, err := d.f.CrashAM(); return err }, func() error {
		if !d.f.AMDown() {
			return errors.New("AM up after crash")
		}
		return nil
	}); err != nil {
		return err
	}
	if _, _, err := d.step(away); err != nil { // trains through the outage
		return err
	}
	t0 = now()
	if _, err := d.op("recover_am", d.f.RecoverAM, func() error {
		if d.f.AMDown() {
			return errors.New("AM down after recovery")
		}
		return nil
	}); err != nil {
		return err
	}
	seq := d.f.CheckpointSeq()
	if _, err := d.op("restore_checkpoint", func() error { _, err := d.f.RestoreCheckpoint(); return err }, func() error {
		if got := d.f.CheckpointSeq(); got != seq {
			return fmt.Errorf("checkpoint seq %d after restore, want %d", got, seq)
		}
		return nil
	}); err != nil {
		return err
	}
	if _, _, err := d.step(away); err != nil {
		return err
	}
	d.ev["am_recover"].add(ms(since(t0)))
	d.tick()

	if err := d.adjust(-d.w.delta); err != nil {
		return err
	}
	d.tick()
	return nil
}

func (d *driver) replicasConsistent() error {
	if !d.f.ReplicasConsistent() {
		return errors.New("replicas diverged")
	}
	return nil
}

// consistencyEvery is how often, in cycles, the replicas are compared
// (between cycles, outside every timed interval).
const consistencyEvery = 10

// recorderResetEvery is how often, in cycles, churn_observed drains its
// span recorder, as a trace exporter would.
const recorderResetEvery = 50

// cycle runs one steady block and one elastic round.
func (d *driver) cycle() error {
	if d.traced {
		d.round = d.tel.rec.StartSpan("bench.round")
		defer d.round.End()
	}
	base := len(d.names)
	stepsBefore := d.steps
	start, yardBefore := now(), d.yard.spent
	// A window is wall time less the yardstick's turns inside it.
	elapsed := func() time.Duration { return since(start) - (d.yard.spent - yardBefore) }
	var lossSum float64
	for i := 0; i < d.w.blockSteps; i++ {
		el, loss, err := d.step(base)
		if err != nil {
			return err
		}
		lossSum += loss
		d.stepMs.add(ms(el))
		d.tick()
	}
	window, steps := elapsed(), d.w.blockSteps
	if err := d.elasticRound(); err != nil {
		return err
	}
	if !d.w.blockWindow {
		window, steps = elapsed(), d.steps-stepsBefore
	}
	d.busy += window
	d.windows.add(float64(steps*d.w.totalBatch) / window.Seconds())
	d.windowLoss = append(d.windowLoss, lossSum/float64(d.w.blockSteps))
	d.cycles++
	return nil
}

// betweenCycles is the untimed housekeeping: the replica check, and the
// exporter-style recorder drain of an observed fleet.
func (d *driver) betweenCycles(onDrain func()) error {
	if d.cycles%consistencyEvery == 0 {
		if _, err := d.op("replicas_consistent", d.replicasConsistent, nil); err != nil {
			return err
		}
	}
	if d.tel != nil && (d.cycles%recorderResetEvery == 0 || d.tel.rec.Len() > drainSpans) {
		if onDrain != nil {
			onDrain()
		}
		d.tel.rec.Reset()
	}
	return nil
}

// drainSpans bounds the recorder between drains, well under its cap, so a
// traced run never drops a span.
const drainSpans = 40000

// run repeats cycles for the given time, or for exactly fixedCycles when
// that is positive (the smoke test's toy count).
func (d *driver) run(seconds float64, fixedCycles int, onDrain func()) error {
	start := now()
	for {
		if fixedCycles > 0 && d.cycles >= fixedCycles {
			return nil
		}
		if fixedCycles <= 0 && since(start).Seconds() >= seconds {
			return nil
		}
		if err := d.cycle(); err != nil {
			return err
		}
		if err := d.betweenCycles(onDrain); err != nil {
			return err
		}
	}
}

// setUp generates the dataset, builds and starts the fleet and warms it
// up with steady steps and one elastic round, so that lazily built state
// (agent workspaces, the checkpoint chain, recovery paths) is in place
// before anything is timed. It returns the warmed-up driver and the
// set-up's own time, the yardstick's turns taken out.
func setUp(w workload, seed int64, tel *telemetrySet, traced bool, yard *yardstick) (*driver, float64, error) {
	start, yardBefore := now(), yard.spent
	ds, err := genDataset(seed, w.rows, w.layers[0], w.layers[len(w.layers)-1])
	if err != nil {
		return nil, 0, err
	}
	f, err := startFleet(w, seed, ds, tel)
	if err != nil {
		return nil, 0, err
	}
	d := newDriver(w, f, tel, traced, yard)
	for i := 0; i < w.warmupSteps; i++ {
		_, loss, err := d.step(w.workers)
		if err != nil {
			f.Close()
			return nil, 0, err
		}
		if i == 0 {
			d.firstLoss = loss
		}
		d.tick()
	}
	if err := d.elasticRound(); err != nil {
		f.Close()
		return nil, 0, err
	}
	// The warm-up round's timings are set-up, not samples.
	d.steps, d.awayStepMs, d.admitSteps, d.ev = 0, nil, nil, newEventSeries()
	return d, (since(start) - (yard.spent - yardBefore)).Seconds(), nil
}

// gatedRun is what one untraced run of a workload measured.
type gatedRun struct {
	d          *driver
	setups     series     // seconds per set-up
	setupYard  *yardstick // set-up's yardstick
	yard       *yardstick // the timed phase's
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint32
	heapLiveMB float64
	finalLoss  float64
}

// runGated sets up setups times (keeping the last fleet, reporting the
// median set-up time), then measures for seconds.
func runGated(w workload, seed int64, seconds float64, setups, fixedCycles int) (*gatedRun, error) {
	var times series
	var d *driver
	setupYard := &yardstick{}
	for i := 0; i < setups; i++ {
		if d != nil {
			d.f.Close()
			runtime.GC()
		}
		var tel *telemetrySet
		if w.telemetry {
			tel = newTelemetry()
		}
		start := now()
		var took float64
		var err error
		if d, took, err = setUp(w, seed, tel, false, setupYard); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		// Stamped at its middle, so the units that correct it are its own.
		times = append(times, sample{at: start.Add(since(start) / 2), v: took})
	}
	defer d.f.Close()
	d.yard = &yardstick{}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, cpu0 := processUsage()
	err := d.run(seconds, fixedCycles, nil)
	_, cpu1 := processUsage()
	runtime.ReadMemStats(&m1)
	g := &gatedRun{
		d:          d,
		setups:     times,
		setupYard:  setupYard,
		yard:       d.yard,
		cpu:        cpu1 - cpu0,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:   m1.NumGC - m0.NumGC,
		heapLiveMB: float64(m1.HeapAlloc) / (1 << 20),
	}
	if err != nil {
		return g, err
	}
	g.finalLoss, err = d.finish()
	return g, err
}

// finish makes the end-of-run checks: replicas agree, and training made
// progress — the last block's mean loss, which it returns, is finite and
// below the loss of the untrained model's first step.
func (d *driver) finish() (finalLoss float64, err error) {
	_, err = d.op("final_checks", d.replicasConsistent, func() error {
		if len(d.windowLoss) == 0 {
			return errors.New("no cycle completed")
		}
		finalLoss = d.windowLoss[len(d.windowLoss)-1]
		if math.IsNaN(finalLoss) || math.IsInf(finalLoss, 0) || finalLoss >= d.firstLoss {
			return fmt.Errorf("final block loss %v, first step loss %v: no training progress", finalLoss, d.firstLoss)
		}
		return nil
	})
	return finalLoss, err
}
