package checkpoint

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/elan-sys/elan/internal/telemetry"
)

// One snapshot, one publish (DESIGN §13): each name holds one full snapshot
// of its state vector, a bit-for-bit copy of the float64s, plus a spare of
// the same size. Save copies into the spare, then bumps the store's seq and
// swaps spare and published snapshot under the store's lock.
// That swap is the commit point: a save that dies before it leaves the
// published snapshot bit for bit, and a stream of saves of one size runs on
// the same two buffers.

// Errors returned by the checkpoint store.
var (
	// ErrCrashInjected reports a fault-injection crash after a save's
	// copy and before its publish (chaos harness hook).
	ErrCrashInjected = errors.New("checkpoint: injected crash before publish")
	// ErrStateSize reports a RestoreFrom into a state buffer whose length
	// does not match the checkpointed model.
	ErrStateSize = errors.New("checkpoint: state length mismatch")
)

// DefaultChunkElems is the copy unit, 4096 float64s (32 KiB): saves and
// restores split the state into units of this size and spread them over up
// to GOMAXPROCS goroutines.
const DefaultChunkElems = 4096

// SaveStats describes one Save.
type SaveStats struct {
	Seq           int64
	ChunksTotal   int   // copy units in the state
	ChunksWritten int   // units published: all of them, or none on a torn save
	BytesWritten  int64 // state bytes published
}

// RestoreStats describes one RestoreFrom.
type RestoreStats struct {
	Seq   int64
	Bytes int64 // state bytes copied: the whole state
}

// DeltaConfig configures a DeltaStore. Metrics may be nil.
type DeltaConfig struct {
	Metrics *telemetry.Registry
}

// snapshot is one name's published save and the buffer its next save
// copies into.
type snapshot struct {
	seq    int64
	header []byte
	state  []float64 // published
	spare  []float64 // the previous state, overwritten by the next save
}

// DeltaStore is an in-memory checkpoint store, one snapshot per name,
// standing in for files on the shared FS.
type DeltaStore struct {
	mu         sync.Mutex
	jobs       map[string]*snapshot
	seq        int64
	chunkElems int  // copy unit: DefaultChunkElems
	crash      bool // InjectCrash armed: the next Save tears

	mSaves    *telemetry.Counter
	mBytesOut *telemetry.Counter
	mRestores *telemetry.Counter
}

// NewDeltaStore creates an empty checkpoint store.
func NewDeltaStore(cfg DeltaConfig) *DeltaStore {
	reg := cfg.Metrics
	return &DeltaStore{
		jobs:       make(map[string]*snapshot),
		chunkElems: DefaultChunkElems,
		mSaves:     reg.Counter("checkpoint_saves_total"),
		mBytesOut:  reg.Counter("checkpoint_bytes_written_total"),
		mRestores:  reg.Counter("checkpoint_restores_total"),
	}
}

// InjectCrash arms a one-shot fault: the next Save copies its whole state
// and then fails with ErrCrashInjected instead of publishing it — the chaos
// harness's crash-mid-save probe.
func (d *DeltaStore) InjectCrash() {
	d.mu.Lock()
	d.crash = true
	d.mu.Unlock()
}

// Chunk-parallel passes start one goroutine per chunksPerWorker chunks, at
// most GOMAXPROCS of them, and hand out chunks chunkGrain at a time. A state
// of under two workers' worth of chunks is not worth a goroutine.
const (
	chunksPerWorker = 32
	chunkGrain      = 8
)

// forChunks splits [0, n) into ranges of chunk elements (the last one
// shorter) and calls fn(lo, hi) for every range, each exactly once,
// returning when all calls have. The worker count is computed from the
// range count alone; with fewer than two workers the same loop runs inline
// on the caller's goroutine and nothing is started. fn must be safe to call
// concurrently for distinct ranges.
func forChunks(n, chunk int, fn func(lo, hi int)) {
	chunks := (n + chunk - 1) / chunk
	run := func(i int) {
		lo := i * chunk
		fn(lo, min(lo+chunk, n))
	}
	workers := min(runtime.GOMAXPROCS(0), chunks/chunksPerWorker)
	if workers < 2 {
		for i := 0; i < chunks; i++ {
			run(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			hi := int(next.Add(chunkGrain))
			lo := hi - chunkGrain
			if lo >= chunks {
				return
			}
			for i := lo; i < min(hi, chunks); i++ {
				run(i)
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

// copyChunks copies src into dst, of the same length, chunk-parallel.
func (d *DeltaStore) copyChunks(dst, src []float64) {
	forChunks(len(src), d.chunkElems, func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}

// Save checkpoints state, with its opaque header (the fleet's encoded
// runtime fields), under name: it copies the whole state into name's spare,
// chunk-parallel, and publishes it. state is read in place and must not
// change until Save returns; it is never written.
func (d *DeltaStore) Save(name string, header []byte, state []float64) (SaveStats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()

	s := d.jobs[name]
	if s == nil {
		s = &snapshot{} // enters the store at its first publish
	}
	if cap(s.spare) < len(state) {
		s.spare = make([]float64, len(state))
	}
	s.spare = s.spare[:len(state)]
	d.copyChunks(s.spare, state)
	stats := SaveStats{ChunksTotal: (len(state) + d.chunkElems - 1) / d.chunkElems}
	if d.crash {
		// Simulated process death at the last moment before the publish:
		// the spare is written through, the published snapshot untouched.
		d.crash = false
		return stats, fmt.Errorf("%w: %q", ErrCrashInjected, name)
	}

	// Commit point.
	d.seq++
	s.seq, s.header = d.seq, append(s.header[:0], header...)
	s.state, s.spare = s.spare, s.state
	d.jobs[name] = s

	stats.Seq, stats.ChunksWritten, stats.BytesWritten = s.seq, stats.ChunksTotal, 8*int64(len(state))
	d.mSaves.Inc()
	d.mBytesOut.Add(stats.BytesWritten)
	return stats, nil
}

// RestoreFrom copies name's whole published snapshot into state,
// chunk-parallel; state must have its length (Head gives it). The last
// argument, the seq state was last restored or saved at, is not consulted:
// every call copies.
func (d *DeltaStore) RestoreFrom(name string, state []float64, _ int64) ([]byte, RestoreStats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.jobs[name]
	if !ok {
		return nil, RestoreStats{}, fmt.Errorf("%w: %q", ErrNoCheckpoint, name)
	}
	if len(state) != len(s.state) {
		return nil, RestoreStats{}, fmt.Errorf("%w: have %d elems, checkpoint %q has %d",
			ErrStateSize, len(state), name, len(s.state))
	}
	d.copyChunks(state, s.state)
	d.mRestores.Inc()
	return append([]byte(nil), s.header...), RestoreStats{Seq: s.seq, Bytes: 8 * int64(len(state))}, nil
}

// LastSeq returns the seq of name's published snapshot.
func (d *DeltaStore) LastSeq(name string) (int64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.jobs[name]
	if !ok {
		return 0, false
	}
	return s.seq, true
}

// Head returns a copy of the header and the state length of name's
// published snapshot, without copying the state.
func (d *DeltaStore) Head(name string) (header []byte, numElems int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.jobs[name]
	if !ok {
		return nil, 0, false
	}
	return append([]byte(nil), s.header...), len(s.state), true
}
