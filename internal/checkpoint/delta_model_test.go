package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/elan-sys/elan/internal/racecheck"
)

// The store copies into one of two buffers per name, from several
// goroutines, and publishes by swapping them, so a mistake shows as a
// committed snapshot changing under a later save, torn or not, of the same
// name or another. The tests here check it against a model that cannot
// alias: a plain copy of every committed state.

// modelJob is the oracle's view of one name.
type modelJob struct {
	size    int                 // the name's original length; resizes stay near it
	work    []float64           // the caller's live state, mutated between saves
	header  []byte              // header of the last commit
	seq     int64               // seq of the last commit (0: none)
	commits map[int64][]float64 // every commit ever made, by seq
	order   []int64             // commit seqs, oldest first
}

type storeModel struct {
	t     *testing.T
	d     *DeltaStore
	jobs  map[string]*modelJob
	seq   int64 // the store's last commit, of any name
	chunk int
}

// Two names of different, non-chunk-aligned sizes share one store. "big" has
// enough chunks for the chunk-parallel passes to start goroutines, "small"
// runs them inline.
const (
	modelChunk = 4
	bigElems   = 4*2*chunksPerWorker + 7
	smallElems = 41
)

func newStoreModel(t *testing.T) *storeModel {
	m := &storeModel{t: t, d: newTestStore(modelChunk, nil), jobs: map[string]*modelJob{}, chunk: modelChunk}
	for name, n := range map[string]int{"big": bigElems, "small": smallElems} {
		j := &modelJob{size: n, work: make([]float64, n), commits: map[int64][]float64{}}
		for i := range j.work {
			j.work[i] = float64(i%7) + 0.5
		}
		m.jobs[name] = j
	}
	return m
}

func filled(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// specialFloats are values a float image must keep bit for bit: NaNs with
// payloads (a signalling one and a quiet one), negative zero, both
// infinities and subnormals.
var specialFloats = []float64{
	math.Float64frombits(0x7ff0000000000001),
	math.Float64frombits(0x7ff8000000000abc),
	math.Copysign(0, -1),
	math.Inf(1),
	math.Inf(-1),
	math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff),
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// save saves name's working state, torn if torn, and brings the oracle
// along.
func (m *storeModel) save(name string, hdr byte, torn bool) {
	m.t.Helper()
	j := m.jobs[name]
	header := []byte{hdr, byte(len(j.order))}
	offered := slices.Clone(j.work)
	if torn {
		m.d.InjectCrash()
	}
	st, err := m.d.Save(name, header, j.work)
	if !sameBits(j.work, offered) {
		m.t.Fatalf("Save(%s) modified the caller's state", name)
	}
	units := (len(j.work) + m.chunk - 1) / m.chunk
	switch {
	case torn:
		if !errors.Is(err, ErrCrashInjected) || st != (SaveStats{ChunksTotal: units}) {
			m.t.Fatalf("armed Save(%s) = %+v, %v; want torn, nothing written", name, st, err)
		}
	case err != nil:
		m.t.Fatalf("Save(%s): %v", name, err)
	default:
		if want := (SaveStats{Seq: m.seq + 1, ChunksTotal: units, ChunksWritten: units, BytesWritten: 8 * int64(len(j.work))}); st != want {
			m.t.Fatalf("Save(%s) stats %+v, want %+v", name, st, want)
		}
		m.seq = st.Seq
		j.seq, j.header = st.Seq, header
		j.commits[st.Seq] = offered
		j.order = append(j.order, st.Seq)
	}
}

// check compares every name's published snapshot with the oracle — seq,
// header, length and, through a cold restore, the state bit for bit — and
// checks that the names' buffers are all distinct.
func (m *storeModel) check() {
	m.t.Helper()
	for name, j := range m.jobs {
		seq, ok := m.d.LastSeq(name)
		hhdr, n, hok := m.d.Head(name)
		hdr, got, rs, err := restore(m.d, name)
		if j.seq == 0 {
			if ok || hok || !errors.Is(err, ErrNoCheckpoint) {
				m.t.Fatalf("%s before any commit: LastSeq ok=%v, Head ok=%v, Restore %v", name, ok, hok, err)
			}
			continue
		}
		want := j.commits[j.seq]
		if err != nil {
			m.t.Fatalf("Restore(%s): %v", name, err)
		}
		if seq != j.seq || rs.Seq != j.seq || n != len(want) || !bytes.Equal(hhdr, j.header) || !bytes.Equal(hdr, j.header) {
			m.t.Fatalf("%s: LastSeq %d, Head %v %d, Restore seq %d header %v; oracle has seq %d header %v length %d",
				name, seq, hhdr, n, rs.Seq, hdr, j.seq, j.header, len(want))
		}
		if rs.Bytes != 8*int64(len(want)) || !sameBits(got, want) {
			m.t.Fatalf("Restore(%s) at seq %d (%d bytes) differs from the committed state", name, j.seq, rs.Bytes)
		}
	}
	seen := map[*float64]string{}
	for name, s := range m.d.jobs {
		for _, b := range [][]float64{s.state, s.spare} {
			if len(b) == 0 {
				continue
			}
			if other, dup := seen[&b[0]]; dup {
				m.t.Fatalf("%s and %s share a state buffer", name, other)
			}
			seen[&b[0]] = name
		}
	}
}

// restore restores name: cold, or into a caller's buffer given the head's
// seq, another commit's seq or a seq never committed. Every one must
// overwrite every element (the buffer starts as NaN). Buffers one element
// short or long must be refused untouched.
func (m *storeModel) restore(name string, arg int) {
	m.t.Helper()
	j := m.jobs[name]
	if j.seq == 0 {
		if _, _, err := m.d.RestoreFrom(name, make([]float64, len(j.work)), 0); !errors.Is(err, ErrNoCheckpoint) {
			m.t.Fatalf("RestoreFrom(%s) before any commit = %v", name, err)
		}
		return
	}
	want := j.commits[j.seq]
	warm := filled(len(want), math.NaN())
	have := int64(1) << 40 // never committed
	switch arg % 4 {
	case 0: // cold: check() restores cold after every op
		return
	case 1: // the published seq copies too
		have = j.seq
	case 2:
		if m.seq > 1 {
			if have = int64(1 + arg%int(m.seq)); have == j.seq {
				have--
			}
		}
	}
	hdr, rs, err := m.d.RestoreFrom(name, warm, have)
	if err != nil {
		m.t.Fatalf("RestoreFrom(%s, seq %d): %v", name, have, err)
	}
	if rs.Seq != j.seq || rs.Bytes != int64(8*len(want)) || !bytes.Equal(hdr, j.header) || !sameBits(warm, want) {
		m.t.Fatalf("RestoreFrom(%s, seq %d) = %+v, did not land on commit %d", name, have, rs, j.seq)
	}
	for _, n := range []int{len(want) - 1, len(want) + 1} {
		bad := filled(n, -3)
		if _, _, err := m.d.RestoreFrom(name, bad, j.seq); !errors.Is(err, ErrStateSize) || !sameBits(bad, filled(n, -3)) {
			m.t.Fatalf("warm buffer of %d elems for %d = %v", n, len(want), err)
		}
	}
}

// runStoreOps interprets data as a sequence of operations, two bytes each,
// checking the store against the oracle after every one.
func runStoreOps(t *testing.T, data []byte) {
	m := newStoreModel(t)
	for len(data) >= 2 {
		op, arg := data[0], int(data[1])
		data = data[2:]
		name := "big"
		if op&1 == 1 {
			name = "small"
		}
		j := m.jobs[name]
		switch (op >> 1) % 7 {
		case 0: // sparse mutate: a few elements move
			for k := 0; k <= arg%3; k++ {
				j.work[(arg*7+k*13)%len(j.work)] += float64(arg%5) + 0.25
			}
			m.save(name, op, false)
		case 1: // dense mutate: every element moves
			for i := range j.work {
				j.work[i] += float64(arg%3) + 1
			}
			m.save(name, op, false)
		case 2: // torn save of a changed state
			j.work[arg%len(j.work)] -= 0.5
			m.save(name, op, true)
		case 3: // resize, near the original length
			n := j.size + arg%9 - 4
			j.work = append(j.work[:min(n, len(j.work))], filled(max(0, n-len(j.work)), float64(arg))...)
			m.save(name, op, arg&16 != 0)
		case 4: // clean save: nothing moved
			m.save(name, op, false)
		case 5:
			m.restore(name, arg)
		case 6: // special values land in the state
			for k, v := range specialFloats {
				j.work[(arg*11+k*17)%len(j.work)] = v
			}
			m.save(name, op, false)
		}
		m.check()
	}
}

// storeOpSeeds are op sequences that reach, between them, every operation
// and the interactions that matter: a torn save before any commit, right
// after a commit and right before a resize; restores into a held buffer
// given the head's, a stale and an unknown seq on both names; resizes both
// ways, torn and committed; NaN payloads, -0, infinities and subnormals
// saved, then restored cold and given the head's, a stale and an unknown seq.
var storeOpSeeds = [][]byte{
	{4, 0, 0, 1, 2, 2, 10, 1, 8, 0, 10, 2},
	{2, 0, 4, 3, 5, 0, 0, 5, 10, 1, 11, 2, 3, 1, 10, 3},
	{6, 0, 6, 1, 4, 2, 7, 16, 6, 17, 10, 1, 11, 1},
	{0, 5, 1, 5, 6, 3, 4, 1, 10, 2, 11, 3, 2, 1, 10, 0},
	{8, 0, 4, 9, 6, 1, 6, 2, 6, 19, 10, 1, 10, 2, 11, 2},
	{0, 0, 1, 9, 3, 20, 3, 33, 7, 8, 5, 1, 4, 2, 6, 0, 10, 6},
	{12, 0, 10, 1, 13, 3, 11, 3, 12, 5, 10, 2, 2, 4, 4, 1, 10, 3, 11, 1},
	{13, 9, 12, 200, 0, 1, 11, 2, 10, 3, 6, 4, 12, 7, 10, 5},
}

// TestDeltaStoreModel runs the seed sequences and a few hundred random ones
// against the oracle.
func TestDeltaStoreModel(t *testing.T) {
	for _, seed := range storeOpSeeds {
		runStoreOps(t, seed)
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 300; i++ {
		ops := make([]byte, 2*(8+rng.Intn(40)))
		rng.Read(ops)
		runStoreOps(t, ops)
	}
}

// FuzzDeltaStoreOps is the same check with the op sequence chosen by the
// fuzzer; plain `go test` runs its seed corpus.
func FuzzDeltaStoreOps(f *testing.F) {
	for _, seed := range storeOpSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		runStoreOps(t, data)
	})
}

// storeTrace is everything observable about a store after a script: what
// each Save returned and the state each one copied.
type storeTrace struct {
	stats  []SaveStats
	errs   []string
	states [][]float64
}

// runSaveScript saves a state big enough for the parallel passes through
// full, sparse, torn, retried, dense and resized saves.
func runSaveScript(t *testing.T) storeTrace {
	t.Helper()
	d := newTestStore(8, nil)
	var tr storeTrace
	state := ramp(8*5*chunksPerWorker+5, 0)
	save := func(torn bool) {
		if torn {
			d.InjectCrash()
		}
		st, err := d.Save("job", []byte("h"), state)
		tr.stats = append(tr.stats, st)
		tr.errs = append(tr.errs, fmt.Sprint(err))
		s := d.jobs["job"]
		if torn {
			tr.states = append(tr.states, slices.Clone(s.spare)) // what the torn save copied
		}
		tr.states = append(tr.states, slices.Clone(s.state))
	}
	save(false)
	for i := 0; i < len(state); i += 97 {
		state[i] = -1
	}
	save(false)
	for i := range state {
		state[i] += 0.5
	}
	save(true)
	save(false) // the retry
	state[3] = 9
	save(false)
	state = append(state, ramp(8*chunksPerWorker+3, 7)...)
	save(false)
	return tr
}

// TestSaveParallelMatchesSerial: the worker count of a Save is computed from
// the chunk count and GOMAXPROCS, and must show in nothing — SaveStats, the
// error, the copied state, of a torn save too — whether the passes run
// inline (GOMAXPROCS 1 is the serial code) or on 2 or 8 goroutines.
func TestSaveParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := runSaveScript(t)
	if want := []string{"<nil>", "<nil>", `checkpoint: injected crash before publish: "job"`, "<nil>", "<nil>", "<nil>"}; !slices.Equal(serial.errs, want) {
		t.Fatalf("script errors %q, want %q", serial.errs, want)
	}
	// states: one per save, and the torn save's spare before its published one.
	if p := serial.states; !sameBits(p[2], p[4]) || !sameBits(p[3], p[1]) || sameBits(p[2], p[3]) {
		t.Fatal("the torn save did not copy the retried save's state beside an untouched published snapshot")
	}
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		got := runSaveScript(t)
		if !slices.Equal(got.stats, serial.stats) || !slices.Equal(got.errs, serial.errs) {
			t.Errorf("GOMAXPROCS %d: stats/errors %+v %q, serial %+v %q", procs, got.stats, got.errs, serial.stats, serial.errs)
		}
		if !slices.EqualFunc(got.states, serial.states, sameBits) {
			t.Errorf("GOMAXPROCS %d: copied states differ from serial", procs)
		}
	}
}

// TestSaveSteadyStateZeroAllocs guards the double buffer: once warm, a dense
// save of two names sharing one store — every element moved, the case
// training produces — copies into the spare it swapped out last time, so it
// allocates under 1 KiB (its goroutines' bookkeeping), and the store holds
// exactly two state buffers per name.
func TestSaveSteadyStateZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race CI job")
	}
	d := NewDeltaStore(DeltaConfig{})
	const chunks = 4 * chunksPerWorker
	states := map[string][]float64{"a": ramp(chunks*DefaultChunkElems, 0), "b": ramp(chunks*DefaultChunkElems/2+1, 3)}
	denseSave := func(name string) {
		state := states[name]
		for i := range state {
			state[i] += 0.125
		}
		if st, err := d.Save(name, nil, state); err != nil || st.BytesWritten != 8*int64(len(state)) {
			t.Fatalf("dense save of %s = %+v, %v", name, st, err)
		}
	}
	for i := 0; i < 2; i++ {
		denseSave("a") // warm-up: the second save allocates the spare
		denseSave("b")
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		denseSave("a")
		denseSave("b")
	}
	runtime.ReadMemStats(&after)
	if perSave := (after.TotalAlloc - before.TotalAlloc) / (2 * runs); perSave >= 1024 {
		t.Fatalf("a warmed-up dense save allocates %d bytes, want under 1 KiB", perSave)
	}
	buffers := map[*float64]bool{}
	for name, s := range d.jobs {
		for _, b := range [][]float64{s.state, s.spare} {
			if len(b) != len(states[name]) {
				t.Fatalf("%s holds a buffer of %d elems, want %d", name, len(b), len(states[name]))
			}
			buffers[&b[0]] = true
		}
	}
	if len(d.jobs) != 2 || len(buffers) != 4 {
		t.Fatalf("%d names hold %d distinct state buffers, want two each", len(d.jobs), len(buffers))
	}
}

// restoreTrace is what one run of runRestoreScript observed.
type restoreTrace struct {
	stats  []RestoreStats
	states [][]float64
	errs   []string
}

// runRestoreScript restores a state big enough for the parallel copy: cold,
// into a buffer given a stale seq, given the head's seq, and into a buffer
// of the wrong length.
func runRestoreScript(t *testing.T) restoreTrace {
	t.Helper()
	d := newTestStore(8, nil)
	state := ramp(8*5*chunksPerWorker+5, 0)
	s1, err := d.Save("job", []byte("h"), state)
	if err != nil {
		t.Fatal(err)
	}
	stale := slices.Clone(state)
	for i := 3; i < len(state); i += 11 {
		state[i] += 0.5
	}
	s2, err := d.Save("job", []byte("h"), state)
	if err != nil {
		t.Fatal(err)
	}

	var tr restoreTrace
	record := func(got []float64, st RestoreStats, err error) {
		tr.stats, tr.states, tr.errs = append(tr.stats, st), append(tr.states, got), append(tr.errs, fmt.Sprint(err))
	}
	_, cold, st, err := restore(d, "job")
	record(cold, st, err)
	_, st, err = d.RestoreFrom("job", stale, s1.Seq)
	record(stale, st, err)
	head := filled(len(state), math.NaN())
	_, st, err = d.RestoreFrom("job", head, s2.Seq)
	record(head, st, err)
	for _, got := range tr.states {
		if !sameBits(got, state) {
			t.Fatal("restored state differs from the last save")
		}
	}
	short := slices.Clone(state[1:])
	_, st, err = d.RestoreFrom("job", short, s2.Seq)
	record(short, st, err)
	return tr
}

// TestRestoreParallelMatchesSerial is TestSaveParallelMatchesSerial for the
// other direction: the copy of a restore fans out by chunk count and
// GOMAXPROCS, and that must show in nothing — the state, RestoreStats, the
// error.
func TestRestoreParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := runRestoreScript(t)
	if n := int64(8 * len(serial.states[0])); serial.stats[0].Bytes != n || serial.stats[1].Bytes != n || serial.stats[2].Bytes != n {
		t.Fatalf("restore stats %+v: want cold, stale and head each to copy %d bytes", serial.stats, n)
	}
	if !strings.HasPrefix(serial.errs[3], ErrStateSize.Error()) {
		t.Fatalf("restore into a short buffer = %q", serial.errs[3])
	}
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		got := runRestoreScript(t)
		if !slices.Equal(got.stats, serial.stats) || !slices.Equal(got.errs, serial.errs) {
			t.Errorf("GOMAXPROCS %d: stats/errors %+v %q, serial %+v %q", procs, got.stats, got.errs, serial.stats, serial.errs)
		}
		if !slices.EqualFunc(got.states, serial.states, sameBits) {
			t.Errorf("GOMAXPROCS %d: restored states differ from serial", procs)
		}
	}
}
