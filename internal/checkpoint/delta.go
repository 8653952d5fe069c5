package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/elan-sys/elan/internal/telemetry"
)

// Delta checkpointing (DESIGN §13): instead of serializing the full model
// as one blob per save, the state vector is split into fixed-size chunks
// (parameter ranges), each identified by a content hash. A save stores
// only the chunks whose hash changed since the previous save and commits a
// manifest — the chunk list plus a pointer to the previous manifest — so
// the chain from any manifest back to the last full snapshot reconstructs
// the exact state. The manifest write is the commit point: a crash after
// some chunk writes but before the manifest leaves the previous chain
// fully intact (the stranded chunks are garbage, collected at the next
// compaction), so recovery is always bit-identical to the last committed
// save. Every CompactEvery-th save is written full, which bounds chain
// length and lets compaction drop unreachable manifests and chunks; so is a
// save that found every chunk dirty, which is a full snapshot already. The
// payload buffers compaction drops are recycled by later saves.

// Errors returned by the delta store.
var (
	// ErrCrashInjected reports a fault-injection crash between chunk
	// writes and the manifest commit (chaos harness hook).
	ErrCrashInjected = errors.New("checkpoint: injected crash before manifest commit")
	// ErrStateSize reports a warm restore against a state buffer whose
	// length does not match the checkpointed model.
	ErrStateSize = errors.New("checkpoint: state length mismatch")
)

// Delta store defaults.
const (
	// DefaultChunkElems is 4096 float64s per chunk (32 KiB): small enough
	// that a handful of touched parameters dirties a handful of chunks,
	// large enough that manifests stay tiny relative to payload.
	DefaultChunkElems = 4096
	// DefaultCompactEvery writes a full manifest (and compacts) every 8th
	// save, bounding restore chains to 8 manifests.
	DefaultCompactEvery = 8
)

// ChunkRef names one chunk of a manifest: its position in the state vector
// and the content hash under which its payload is stored.
type ChunkRef struct {
	Index int
	Hash  uint64
}

// Manifest is one committed save. Full manifests carry a ref for every
// chunk; delta manifests carry only the dirty ones and chain to the
// previous manifest via Base.
type Manifest struct {
	Seq      int64
	Base     int64 // previous manifest's Seq (0 for a full manifest)
	Full     bool
	NumElems int
	Header   []byte
	Chunks   []ChunkRef
}

// SaveStats describes one Save.
type SaveStats struct {
	Seq           int64
	Full          bool
	Compacted     bool
	ChunksTotal   int
	ChunksDirty   int   // refs recorded in the manifest beyond the clean set
	ChunksWritten int   // payloads newly stored (dirty minus content-dedup hits)
	BytesWritten  int64 // payload bytes newly stored
	BytesSkipped  int64 // payload bytes avoided vs a full-blob save
}

// RestoreStats describes one Restore/RestoreFrom.
type RestoreStats struct {
	Seq            int64
	ChainLen       int // manifests walked
	ChunksReplayed int // chunk payloads decoded
	Bytes          int64
}

// DeltaConfig configures a DeltaStore. Zero values take the defaults
// above; Metrics may be nil.
type DeltaConfig struct {
	ChunkElems   int
	CompactEvery int
	Metrics      *telemetry.Registry
}

// chain is the per-name checkpoint lineage.
type chain struct {
	manifests []Manifest // [0] is full; later entries are deltas
	hashes    []uint64   // current per-chunk content hash (dirty detection)
	numElems  int
	sinceFull int // delta saves since manifests[0]
}

// DeltaStore is an in-memory content-addressed chunk store with manifest
// chains, standing in for files on the shared FS exactly like Store does
// for full blobs.
type DeltaStore struct {
	mu     sync.Mutex
	cfg    DeltaConfig
	chunks map[uint64][]byte // content hash → encoded payload
	jobs   map[string]*chain
	seq    int64

	// free holds the payload buffers of chunks compaction found no live
	// manifest referencing. Only compactLocked adds to it, only full-size
	// buffers (so any of them fits any chunk), and Save takes from it
	// before allocating.
	free [][]byte

	// crashAfter < 0 is disarmed; otherwise the next Save fails after
	// that many chunk-payload writes, before committing its manifest.
	crashAfter int

	mSaves     *telemetry.Counter
	mFullSaves *telemetry.Counter
	mCompact   *telemetry.Counter
	mBytesOut  *telemetry.Counter
	mBytesSkip *telemetry.Counter
	mChunksOut *telemetry.Counter
	mRestores  *telemetry.Counter
	mReplayed  *telemetry.Counter
}

// NewDeltaStore creates an empty delta checkpoint store.
func NewDeltaStore(cfg DeltaConfig) *DeltaStore {
	if cfg.ChunkElems <= 0 {
		cfg.ChunkElems = DefaultChunkElems
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = DefaultCompactEvery
	}
	d := &DeltaStore{
		cfg:        cfg,
		chunks:     make(map[uint64][]byte),
		jobs:       make(map[string]*chain),
		crashAfter: -1,
	}
	reg := cfg.Metrics
	d.mSaves = reg.Counter("checkpoint_saves_total")
	d.mFullSaves = reg.Counter("checkpoint_full_saves_total")
	d.mCompact = reg.Counter("checkpoint_compactions_total")
	d.mBytesOut = reg.Counter("checkpoint_bytes_written_total")
	d.mBytesSkip = reg.Counter("checkpoint_bytes_skipped_total")
	d.mChunksOut = reg.Counter("checkpoint_chunks_written_total")
	d.mRestores = reg.Counter("checkpoint_restores_total")
	d.mReplayed = reg.Counter("checkpoint_restore_chunks_total")
	return d
}

// hashChunk folds the chunk's float64 bit patterns through a word-wide
// FNV-1a variant (xor the full word, then multiply by the 64-bit FNV
// prime). Not cryptographic — it detects drift between training steps,
// not adversaries.
//
// Each word's high half is first folded into its low half. A multiply only
// carries information upwards, and values with short mantissas (0.5, 3,
// 1e9: round numbers, freshly zeroed or constant-filled tensors) differ in
// their top 16 bits alone, so without the fold such chunks hash into 16
// bits and collide by the thousand — which content-addressing turns into a
// changed chunk taken for a clean or already stored one. The fold is off
// the loop's dependency chain and costs nothing.
//
//elan:hotpath
func hashChunk(vals []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		w := math.Float64bits(v)
		h ^= w ^ w>>32
		h *= 1099511628211
	}
	return h
}

// chunkBounds returns the [lo, hi) element range of chunk i.
func (d *DeltaStore) chunkBounds(i, numElems int) (int, int) {
	lo := i * d.cfg.ChunkElems
	hi := lo + d.cfg.ChunkElems
	if hi > numElems {
		hi = numElems
	}
	return lo, hi
}

func (d *DeltaStore) numChunks(numElems int) int {
	return (numElems + d.cfg.ChunkElems - 1) / d.cfg.ChunkElems
}

// encodeChunk writes vals into b, which holds exactly 8 bytes per value.
func encodeChunk(b []byte, vals []float64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
}

func decodeChunk(b []byte, out []float64) {
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// InjectCrash arms a one-shot fault: the next Save fails with
// ErrCrashInjected after afterChunks chunk-payload writes, before its
// manifest commits — the chaos harness's crash-mid-save probe.
func (d *DeltaStore) InjectCrash(afterChunks int) {
	d.mu.Lock()
	d.crashAfter = afterChunks
	d.mu.Unlock()
}

// pendingWrite is one payload a save has decided to store: the chunk's
// index in the state vector and the buffer reserved for its encoding.
type pendingWrite struct {
	index int
	buf   []byte
}

// Chunk-parallel passes start one goroutine per chunksPerWorker chunks, at
// most GOMAXPROCS of them, and hand out chunks chunkGrain at a time. A state
// of under two workers' worth of chunks is not worth a goroutine.
const (
	chunksPerWorker = 32
	chunkGrain      = 8
)

// forChunks calls fn(i) for every i in [0, n), each exactly once, and
// returns when all calls have. The worker count is computed from n alone;
// with fewer than two workers the same loop runs inline on the caller's
// goroutine and nothing is started. fn must be safe to call concurrently
// for distinct i.
func forChunks(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n/chunksPerWorker)
	if workers < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			hi := int(next.Add(chunkGrain))
			lo := hi - chunkGrain
			if lo >= n {
				return
			}
			for i := lo; i < min(hi, n); i++ {
				fn(i)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// CopyState copies src into dst like the builtin copy, with the fan-out a
// Save of a state that size uses: the way to keep a warm copy of what was
// just saved without a serial pass over it.
func CopyState(dst, src []float64) {
	n := min(len(dst), len(src))
	forChunks((n+DefaultChunkElems-1)/DefaultChunkElems, func(i int) {
		lo := i * DefaultChunkElems
		hi := min(lo+DefaultChunkElems, n)
		copy(dst[lo:hi], src[lo:hi])
	})
}

// payloadBuf returns a buffer of size bytes for a new payload, recycled
// from the free list when it has one.
func (d *DeltaStore) payloadBuf(size int) []byte {
	if k := len(d.free) - 1; k >= 0 {
		b := d.free[k][:size]
		d.free[k] = nil
		d.free = d.free[:k]
		return b
	}
	return make([]byte, size)
}

// Save checkpoints state (with its opaque header, typically the gob of the
// runtime fields) under name, storing only chunks whose content changed
// since the last committed save. The first save of a name, a save after
// the model size changed, every CompactEvery-th save and a save that found
// every chunk dirty are full; full saves also compact the store.
//
// state is read in place in three passes: chunk hashes (chunk-parallel),
// then one serial loop that makes every decision — dirty, content-dedup
// hit, injected crash — in chunk order, so the outcome does not depend on
// scheduling, then the encoding of the chunks that loop chose
// (chunk-parallel, into recycled buffers). The caller must keep state
// unchanged until Save returns.
func (d *DeltaStore) Save(name string, header []byte, state []float64) (SaveStats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()

	c := d.jobs[name]
	full := c == nil || c.numElems != len(state) || c.sinceFull >= d.cfg.CompactEvery-1
	n := d.numChunks(len(state))

	hashes := make([]uint64, n)
	forChunks(n, func(i int) {
		lo, hi := d.chunkBounds(i, len(state))
		hashes[i] = hashChunk(state[lo:hi])
	})

	var stats SaveStats
	stats.Full = full
	stats.ChunksTotal = n
	refs := make([]ChunkRef, 0, n)
	var writes []pendingWrite
	crashed := false
	for i := 0; i < n; i++ {
		dirty := full || hashes[i] != c.hashes[i]
		lo, hi := d.chunkBounds(i, len(state))
		size := int64(8 * (hi - lo))
		if !dirty {
			stats.BytesSkipped += size
			continue
		}
		refs = append(refs, ChunkRef{Index: i, Hash: hashes[i]})
		stats.ChunksDirty++
		if _, ok := d.chunks[hashes[i]]; ok {
			// Content-addressed dedup: the payload is already stored
			// (e.g. a chunk reverted to an earlier value) or reserved by
			// an earlier chunk of this save.
			stats.BytesSkipped += size
			continue
		}
		if d.crashAfter >= 0 && len(writes) >= d.crashAfter {
			// Simulated process death: some chunks landed, no manifest.
			// The previous chain is untouched; the stranded payloads are
			// garbage until the next compaction.
			d.crashAfter = -1
			crashed = true
			break
		}
		buf := d.payloadBuf(int(size))
		d.chunks[hashes[i]] = buf
		writes = append(writes, pendingWrite{index: i, buf: buf})
		stats.ChunksWritten++
		stats.BytesWritten += size
	}

	// Every payload is complete before the commit point below (and before
	// a torn save returns: its chunks landed, as a dying process's would).
	forChunks(len(writes), func(w int) {
		lo, hi := d.chunkBounds(writes[w].index, len(state))
		encodeChunk(writes[w].buf, state[lo:hi])
	})
	if crashed {
		return stats, fmt.Errorf("%w: %q after %d chunk writes", ErrCrashInjected, name, stats.ChunksWritten)
	}

	// A delta that rewrote every chunk references nothing of the chain
	// before it: it is a full snapshot, so it is committed as one and the
	// older generations become collectable now rather than CompactEvery
	// saves later.
	if n > 0 && stats.ChunksDirty == n {
		full, stats.Full = true, true
	}

	// Commit point: the manifest enters the chain only after every chunk
	// it references is stored.
	d.seq++
	m := Manifest{
		Seq:      d.seq,
		Full:     full,
		NumElems: len(state),
		Header:   append([]byte(nil), header...),
		Chunks:   refs,
	}
	if full {
		d.jobs[name] = &chain{manifests: []Manifest{m}, hashes: hashes, numElems: len(state)}
		stats.Compacted = d.compactLocked()
		d.mFullSaves.Inc()
		if stats.Compacted {
			d.mCompact.Inc()
		}
	} else {
		m.Base = c.manifests[len(c.manifests)-1].Seq
		c.manifests = append(c.manifests, m)
		c.hashes = hashes
		c.sinceFull++
	}
	stats.Seq = m.Seq

	d.mSaves.Inc()
	d.mBytesOut.Add(stats.BytesWritten)
	d.mBytesSkip.Add(stats.BytesSkipped)
	d.mChunksOut.Add(int64(stats.ChunksWritten))
	return stats, nil
}

// compactLocked drops every chunk payload not referenced by a live
// manifest of any name. Called after a full save replaces a chain, which
// is when references actually go away. Returns whether anything was
// collected. A dropped payload's buffer goes to the free list — here and
// nowhere else, because only here is it known that no manifest can reach
// it — unless the list already holds as many buffers as there are live
// payloads, the most a save can need without the state having grown.
func (d *DeltaStore) compactLocked() bool {
	live := make(map[uint64]bool, len(d.chunks))
	for _, c := range d.jobs {
		for _, m := range c.manifests {
			for _, ref := range m.Chunks {
				live[ref.Hash] = true
			}
		}
	}
	collected := false
	for h, payload := range d.chunks {
		if live[h] {
			continue
		}
		delete(d.chunks, h)
		collected = true
		if cap(payload) == 8*d.cfg.ChunkElems && len(d.free) < len(live) {
			d.free = append(d.free, payload)
		}
	}
	return collected
}

// resolve builds the newest chunk ref per index across the manifests
// after seq position from (exclusive, by chain index), walking oldest to
// newest so later saves win.
func resolveRefs(manifests []Manifest, n int) []ChunkRef {
	refs := make([]ChunkRef, n)
	for i := range refs {
		refs[i].Index = -1
	}
	for _, m := range manifests {
		for _, ref := range m.Chunks {
			refs[ref.Index] = ref
		}
	}
	return refs
}

// Restore rebuilds the latest committed state of name from its manifest
// chain: the last full snapshot plus every delta after it, newest chunk
// winning per index.
func (d *DeltaStore) Restore(name string) ([]byte, []float64, RestoreStats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.jobs[name]
	if !ok {
		return nil, nil, RestoreStats{}, fmt.Errorf("%w: %q", ErrNoCheckpoint, name)
	}
	last := c.manifests[len(c.manifests)-1]
	state := make([]float64, last.NumElems)
	stats := RestoreStats{Seq: last.Seq, ChainLen: len(c.manifests)}
	if err := d.applyLocked(c.manifests, state, &stats); err != nil {
		return nil, nil, RestoreStats{}, err
	}
	d.mRestores.Inc()
	d.mReplayed.Add(int64(stats.ChunksReplayed))
	return append([]byte(nil), last.Header...), state, stats, nil
}

// RestoreFrom is the warm-restart path: the caller already holds the
// state exactly as committed at manifest haveSeq (a restarted AM reusing
// host memory, a rejoining worker with a stale replica) and only the
// chunks that changed since then are decoded into it. If haveSeq is no
// longer in the chain — compacted away, or from a different lineage — the
// full chain is replayed instead.
func (d *DeltaStore) RestoreFrom(name string, state []float64, haveSeq int64) ([]byte, RestoreStats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.jobs[name]
	if !ok {
		return nil, RestoreStats{}, fmt.Errorf("%w: %q", ErrNoCheckpoint, name)
	}
	last := c.manifests[len(c.manifests)-1]
	if len(state) != last.NumElems {
		return nil, RestoreStats{}, fmt.Errorf("%w: have %d elems, checkpoint %q has %d",
			ErrStateSize, len(state), name, last.NumElems)
	}
	from := 0 // full replay unless haveSeq is found in the chain
	for i, m := range c.manifests {
		if m.Seq == haveSeq {
			from = i + 1
			break
		}
	}
	stats := RestoreStats{Seq: last.Seq, ChainLen: len(c.manifests) - from}
	if err := d.applyLocked(c.manifests[from:], state, &stats); err != nil {
		return nil, RestoreStats{}, err
	}
	d.mRestores.Inc()
	d.mReplayed.Add(int64(stats.ChunksReplayed))
	return append([]byte(nil), last.Header...), stats, nil
}

// applyLocked decodes the newest version of every chunk referenced by
// manifests into state. One serial pass in chunk order resolves every ref to
// its payload — so a missing chunk is reported the same way whatever the
// scheduling, the lowest one first, before state is touched — and the
// decoding of what it found is chunk-parallel, as Save's encoding is.
func (d *DeltaStore) applyLocked(manifests []Manifest, state []float64, stats *RestoreStats) error {
	if len(manifests) == 0 {
		return nil
	}
	n := d.numChunks(len(state))
	type replay struct {
		index   int
		payload []byte
	}
	replays := make([]replay, 0, n)
	for _, ref := range resolveRefs(manifests, n) {
		if ref.Index < 0 {
			continue // untouched by this span of the chain
		}
		payload, ok := d.chunks[ref.Hash]
		if !ok {
			return fmt.Errorf("checkpoint: chunk %d (hash %x) missing from store", ref.Index, ref.Hash)
		}
		replays = append(replays, replay{ref.Index, payload})
		stats.ChunksReplayed++
		stats.Bytes += int64(len(payload))
	}
	forChunks(len(replays), func(r int) {
		lo, hi := d.chunkBounds(replays[r].index, len(state))
		decodeChunk(replays[r].payload, state[lo:hi])
	})
	return nil
}

// LastSeq returns the newest committed manifest seq for name.
func (d *DeltaStore) LastSeq(name string) (int64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.jobs[name]
	if !ok {
		return 0, false
	}
	return c.manifests[len(c.manifests)-1].Seq, true
}

// Chain returns a copy of name's manifest chain (for tests and
// inspection).
func (d *DeltaStore) Chain(name string) []Manifest {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.jobs[name]
	if !ok {
		return nil
	}
	return append([]Manifest(nil), c.manifests...)
}

// ChunkCount returns how many chunk payloads the store currently holds
// (for compaction tests).
func (d *DeltaStore) ChunkCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.chunks)
}
