package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/elan-sys/elan/internal/racecheck"
)

// The delta store recycles payload buffers and fills them from several
// goroutines, so a mistake shows as one name's old commit changing under
// it, possibly many saves later. The tests here check it against a model
// that cannot alias: a plain copy of every committed state.

// modelJob is the oracle's view of one name.
type modelJob struct {
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
	armed int // InjectCrash argument still waiting to fire, -1 if none
	chunk int
}

// Two names of different, non-chunk-aligned sizes share one store. "big" has
// enough chunks for the chunk-parallel passes to start goroutines, "small"
// runs them inline; both kinds of buffer meet in the one free list.
const (
	modelChunk = 4
	bigElems   = 4*2*chunksPerWorker + 3
	smallElems = 41
)

func newStoreModel(t *testing.T) *storeModel {
	m := &storeModel{
		t: t, armed: -1, chunk: modelChunk,
		d:    NewDeltaStore(DeltaConfig{ChunkElems: modelChunk, CompactEvery: 3}),
		jobs: map[string]*modelJob{},
	}
	for name, n := range map[string]int{"big": bigElems, "small": smallElems} {
		j := &modelJob{work: make([]float64, n), commits: map[int64][]float64{}}
		for i := range j.work {
			j.work[i] = float64(i%7) + 0.5 // repeats, so chunks dedup within and across names
		}
		m.jobs[name] = j
	}
	return m
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// save saves name's working state and brings the oracle along.
func (m *storeModel) save(name string, hdr byte) {
	m.t.Helper()
	j := m.jobs[name]
	header := []byte{hdr, byte(len(j.order))}
	offered := slices.Clone(j.work)
	st, err := m.d.Save(name, header, j.work)
	if !sameBits(j.work, offered) {
		m.t.Fatalf("Save(%s) modified the caller's state", name)
	}
	switch {
	case errors.Is(err, ErrCrashInjected):
		// Torn: exactly the armed number of payloads landed, nothing
		// committed. The oracle does not move.
		if m.armed < 0 || st.ChunksWritten != m.armed {
			m.t.Fatalf("torn save wrote %d payloads with crash armed at %d", st.ChunksWritten, m.armed)
		}
		m.armed = -1
		if seq, ok := m.d.LastSeq(name); (j.seq == 0) == ok || seq != j.seq {
			m.t.Fatalf("torn save moved %s's head to %d (ok=%v), last commit is %d", name, seq, ok, j.seq)
		}
	case err != nil:
		m.t.Fatalf("Save(%s): %v", name, err)
	default:
		if m.armed >= 0 && st.ChunksWritten > m.armed {
			m.t.Fatalf("save wrote %d payloads past a crash armed at %d", st.ChunksWritten, m.armed)
		}
		if st.Seq <= j.seq || st.ChunksTotal != (len(j.work)+m.chunk-1)/m.chunk {
			m.t.Fatalf("save stats %+v after seq %d", st, j.seq)
		}
		if st.ChunksDirty == st.ChunksTotal && !st.Full {
			m.t.Fatalf("a save that rewrote every chunk was not promoted: %+v", st)
		}
		j.seq, j.header = st.Seq, header
		j.commits[st.Seq] = offered
		j.order = append(j.order, st.Seq)
	}
	m.check()
}

// check compares every name's committed state with the oracle, bit for bit,
// through a cold restore, and checks the chain's shape.
func (m *storeModel) check() {
	m.t.Helper()
	for name, j := range m.jobs {
		hdr, got, rs, err := m.d.Restore(name)
		if j.seq == 0 {
			if !errors.Is(err, ErrNoCheckpoint) {
				m.t.Fatalf("Restore(%s) before any commit = %v", name, err)
			}
			continue
		}
		if err != nil {
			m.t.Fatalf("Restore(%s): %v", name, err)
		}
		if rs.Seq != j.seq || !bytes.Equal(hdr, j.header) {
			m.t.Fatalf("Restore(%s) = seq %d header %v, oracle has seq %d header %v", name, rs.Seq, hdr, j.seq, j.header)
		}
		if !sameBits(got, j.commits[j.seq]) {
			m.t.Fatalf("Restore(%s) at seq %d differs from the committed state", name, j.seq)
		}
		chain := m.d.Chain(name)
		if !chain[0].Full || chain[0].Base != 0 || chain[len(chain)-1].Seq != j.seq {
			m.t.Fatalf("%s chain %+v", name, chain)
		}
		for i := 1; i < len(chain); i++ {
			if chain[i].Full || chain[i].Base != chain[i-1].Seq {
				m.t.Fatalf("%s chain link %d: %+v after %+v", name, i, chain[i], chain[i-1])
			}
		}
	}
}

// restoreFrom warm-restores name from the commit age saves back (0: the
// current one; past the oldest: a seq that was never committed), holding
// exactly that commit's state — or garbage when the seq is unknown, since a
// full replay must overwrite every element.
func (m *storeModel) restoreFrom(name string, age int) {
	m.t.Helper()
	j := m.jobs[name]
	if j.seq == 0 {
		if _, _, err := m.d.RestoreFrom(name, make([]float64, len(j.work)), 0); !errors.Is(err, ErrNoCheckpoint) {
			m.t.Fatalf("RestoreFrom(%s) before any commit = %v", name, err)
		}
		return
	}
	var have int64 = 1 << 40
	warm := make([]float64, len(j.work))
	for i := range warm {
		warm[i] = math.NaN()
	}
	if age < len(j.order) {
		have = j.order[len(j.order)-1-age]
		copy(warm, j.commits[have])
	}
	hdr, rs, err := m.d.RestoreFrom(name, warm, have)
	if err != nil {
		m.t.Fatalf("RestoreFrom(%s, seq %d): %v", name, have, err)
	}
	if rs.Seq != j.seq || !bytes.Equal(hdr, j.header) || !sameBits(warm, j.commits[j.seq]) {
		m.t.Fatalf("RestoreFrom(%s, seq %d) did not land on commit %d", name, have, j.seq)
	}
	if age == 0 && rs.ChunksReplayed != 0 {
		m.t.Fatalf("warm restore from the head replayed %d chunks", rs.ChunksReplayed)
	}
	if _, _, err := m.d.RestoreFrom(name, warm[1:], have); !errors.Is(err, ErrStateSize) {
		m.t.Fatalf("short warm buffer = %v, want ErrStateSize", err)
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
		case 0: // sparse-dirty save: a few elements move
			for k := 0; k <= arg%3; k++ {
				j.work[(arg*7+k*13)%len(j.work)] += float64(arg%5) + 0.25
			}
			m.save(name, op)
		case 1: // dense save: every element moves, the save is promoted
			for i := range j.work {
				j.work[i] += float64(arg%3) + 1
			}
			m.save(name, op)
		case 2: // torn save, if the save needs more than arg%6 new payloads
			m.armed = arg % 6
			m.d.InjectCrash(m.armed)
			for i := range j.work {
				j.work[i] -= 0.5
			}
			m.save(name, op)
		case 3:
			m.restoreFrom(name, arg%5)
		case 4: // revert to an earlier commit's content: dedup against stored payloads
			if len(j.order) > 0 {
				copy(j.work, j.commits[j.order[arg%len(j.order)]])
			}
			m.save(name, op)
		case 5: // copy the other name's leading values in: dedup across names
			other := m.jobs[map[string]string{"big": "small", "small": "big"}[name]]
			copy(j.work, other.work[:min(len(other.work), len(j.work), m.chunk*(1+arg%8))])
			m.save(name, op)
		case 6: // clean save: nothing moved
			m.save(name, op)
		}
	}
}

// storeOpSeeds are op sequences that reach, between them, every operation
// and the interactions that matter: promotion right after a torn save,
// recycled buffers taken by the other name, dedup against a commit that
// compaction is about to drop.
var storeOpSeeds = [][]byte{
	{0, 1, 2, 2, 2, 1, 6, 0, 2, 2, 6, 4},
	{2, 0, 3, 0, 2, 1, 4, 3, 2, 2, 3, 1, 6, 3, 7, 4},
	{2, 0, 2, 1, 8, 0, 2, 2, 8, 1, 6, 1, 6, 2},
	{0, 5, 1, 5, 10, 3, 11, 3, 2, 1, 3, 2, 10, 0, 11, 7},
	{4, 0, 2, 0, 4, 9, 2, 1, 2, 2, 12, 0, 6, 0, 6, 1, 6, 2, 6, 3, 6, 4},
	{0, 0, 0, 9, 0, 20, 0, 33, 6, 1, 6, 2, 2, 1, 6, 0, 8, 2},
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
// each Save returned, the chains, and the stored payloads themselves.
type storeTrace struct {
	stats   []SaveStats
	errs    []string
	chains  map[string][]Manifest
	stored  []uint64 // hashes of the payloads held, sorted
	payload map[uint64][]byte
	torn    []uint64 // the stored set right after the torn save
}

func storedHashes(d *DeltaStore) []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]uint64, 0, len(d.chunks))
	for h := range d.chunks {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// runSaveScript saves a state big enough for the parallel passes through
// full, sparse, torn, retried and dense (promoted) saves.
func runSaveScript(t *testing.T) storeTrace {
	t.Helper()
	d := NewDeltaStore(DeltaConfig{ChunkElems: 8, CompactEvery: 4})
	tr := storeTrace{chains: map[string][]Manifest{}, payload: map[uint64][]byte{}}
	state := ramp(8*5*chunksPerWorker+5, 0)
	save := func() {
		st, err := d.Save("job", []byte("h"), state)
		tr.stats = append(tr.stats, st)
		tr.errs = append(tr.errs, fmt.Sprint(err))
	}
	save() // full
	for i := 0; i < len(state); i += 97 {
		state[i] = -1
	}
	save() // sparse delta
	for i := range state {
		state[i] += 0.5
	}
	d.InjectCrash(37)
	save() // torn after 37 payloads, well into the state
	tr.torn = storedHashes(d)
	save() // the retry, dense: promoted and compacted
	state[3] = 9
	save() // delta on the promoted base
	tr.chains["job"] = d.Chain("job")
	tr.stored = storedHashes(d)
	d.mu.Lock()
	for h, b := range d.chunks {
		tr.payload[h] = slices.Clone(b)
	}
	d.mu.Unlock()
	return tr
}

// TestSaveParallelMatchesSerial: the worker count of a Save is computed from
// the chunk count and GOMAXPROCS, and must show in nothing — manifests,
// hashes, SaveStats, the error and the stored-chunk set of a torn save, the
// payload bytes — whether the passes run inline (GOMAXPROCS 1 is the serial
// code) or on 2 or 8 goroutines.
func TestSaveParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := runSaveScript(t)
	if want := []string{"<nil>", "<nil>", `checkpoint: injected crash before manifest commit: "job" after 37 chunk writes`, "<nil>", "<nil>"}; !slices.Equal(serial.errs, want) {
		t.Fatalf("script errors %q, want %q", serial.errs, want)
	}
	if st := serial.stats[2]; st.ChunksWritten != 37 {
		t.Fatalf("torn save stats %+v, want 37 payloads written", st)
	}
	if st := serial.stats[3]; !st.Full || !st.Compacted || st.ChunksWritten != st.ChunksTotal-37 {
		t.Fatalf("retried dense save %+v: want promoted, compacted, the torn save's 37 payloads reused", st)
	}
	if st := serial.stats[4]; st.Full || st.ChunksDirty != 1 {
		t.Fatalf("delta after promotion %+v", st)
	}
	if got, want := len(serial.torn), serial.stats[0].ChunksTotal+serial.stats[1].ChunksWritten+37; got != want {
		t.Fatalf("%d payloads stored after the torn save, want %d", got, want)
	}
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		got := runSaveScript(t)
		if !slices.Equal(got.stats, serial.stats) || !slices.Equal(got.errs, serial.errs) {
			t.Errorf("GOMAXPROCS %d: stats/errors %+v %q, serial %+v %q", procs, got.stats, got.errs, serial.stats, serial.errs)
		}
		if !slices.Equal(got.torn, serial.torn) || !slices.Equal(got.stored, serial.stored) {
			t.Errorf("GOMAXPROCS %d: stored-chunk sets differ from serial", procs)
		}
		if !slices.EqualFunc(got.chains["job"], serial.chains["job"], func(a, b Manifest) bool {
			return a.Seq == b.Seq && a.Base == b.Base && a.Full == b.Full && a.NumElems == b.NumElems &&
				bytes.Equal(a.Header, b.Header) && slices.Equal(a.Chunks, b.Chunks)
		}) {
			t.Errorf("GOMAXPROCS %d: manifests differ from serial", procs)
		}
		for h, b := range serial.payload {
			if !bytes.Equal(got.payload[h], b) {
				t.Errorf("GOMAXPROCS %d: payload %x differs from serial", procs, h)
			}
		}
	}
}

// TestSaveSteadyStateZeroAllocs guards the recycling: once warm, a dense
// save — every chunk rewritten, the case training produces — takes its
// payload buffers from the free list, so it allocates only bookkeeping
// (hashes, refs, the manifest): under a twentieth of the state's bytes. And
// promotion keeps the store at one live generation plus one recycled, not
// CompactEvery of them.
func TestSaveSteadyStateZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race CI job")
	}
	d := NewDeltaStore(DeltaConfig{})
	const chunks = 4 * chunksPerWorker
	state := ramp(chunks*DefaultChunkElems, 0)
	denseSave := func() {
		for i := range state {
			state[i] += 0.125
		}
		st, err := d.Save("job", nil, state)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Full || st.ChunksWritten != chunks {
			t.Fatalf("dense save stats %+v", st)
		}
		if got := d.ChunkCount(); got > 2*chunks {
			t.Fatalf("%d payloads stored, want at most two generations of %d", got, chunks)
		}
	}
	for i := 0; i < 3; i++ {
		denseSave() // warm-up: the third save is the first to run entirely on recycled buffers
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		denseSave()
	}
	runtime.ReadMemStats(&after)
	perSave := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(8 * len(state) / 20); perSave > limit {
		t.Fatalf("a warmed-up dense save allocates %d bytes, want under %d (5%% of the state)", perSave, limit)
	}
	if len(d.Chain("job")) != 1 {
		t.Fatalf("chain of %d manifests after dense saves, want 1", len(d.Chain("job")))
	}
}

// restoreTrace is what one run of runRestoreScript observed.
type restoreTrace struct {
	stats  []RestoreStats
	states [][]float64
	errs   []string
}

// runRestoreScript restores a state big enough for the parallel decode — cold
// over a chain of a full save and two deltas, warm from the middle of it —
// then loses two payloads and restores again.
func runRestoreScript(t *testing.T) restoreTrace {
	t.Helper()
	d := NewDeltaStore(DeltaConfig{ChunkElems: 8, CompactEvery: 8})
	state := ramp(8*5*chunksPerWorker+5, 0)
	var seqs []int64
	var saved [][]float64
	save := func() {
		st, err := d.Save("job", []byte("h"), state)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, st.Seq)
		saved = append(saved, slices.Clone(state))
	}
	save()
	for i := 0; i < len(state); i += 97 {
		state[i] = -1
	}
	save()
	for i := 3; i < len(state); i += 11 {
		state[i] += 0.5
	}
	save()

	var tr restoreTrace
	_, cold, st, err := d.Restore("job")
	tr.stats, tr.states, tr.errs = append(tr.stats, st), append(tr.states, cold), append(tr.errs, fmt.Sprint(err))
	warm := slices.Clone(saved[1])
	_, st, err = d.RestoreFrom("job", warm, seqs[1])
	tr.stats, tr.states, tr.errs = append(tr.stats, st), append(tr.states, warm), append(tr.errs, fmt.Sprint(err))
	for _, got := range tr.states {
		if !sameBits(got, state) {
			t.Fatal("restored state differs from the last save")
		}
	}

	// Two chunks of the newest state lose their payloads: the restore names
	// the lower one and leaves the caller's buffer as it was.
	last := d.Chain("job")[2]
	d.mu.Lock()
	for _, ref := range last.Chunks {
		if ref.Index == 41 || ref.Index == 107 {
			delete(d.chunks, ref.Hash)
		}
	}
	d.mu.Unlock()
	torn := slices.Clone(saved[1])
	_, st, err = d.RestoreFrom("job", torn, seqs[1])
	tr.stats, tr.states, tr.errs = append(tr.stats, st), append(tr.states, torn), append(tr.errs, fmt.Sprint(err))
	if !sameBits(torn, saved[1]) {
		t.Fatal("a restore that failed on a missing chunk wrote into the caller's state")
	}
	return tr
}

// TestRestoreParallelMatchesSerial is TestSaveParallelMatchesSerial for the
// other direction: the decode of a restore fans out by chunk count and
// GOMAXPROCS, and that must show in nothing — the state, RestoreStats, which
// missing chunk the error names.
func TestRestoreParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := runRestoreScript(t)
	if !strings.Contains(serial.errs[2], "chunk 41 ") {
		t.Fatalf("restore over two missing chunks = %q, want chunk 41 named", serial.errs[2])
	}
	if st := serial.stats[1]; st.ChainLen != 1 || st.ChunksReplayed == 0 || st.ChunksReplayed >= serial.stats[0].ChunksReplayed {
		t.Fatalf("warm restore %+v against cold %+v: want the last delta alone replayed", st, serial.stats[0])
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
