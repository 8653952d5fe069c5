package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/elan-sys/elan/internal/clock"
)

// Heartbeat coalescing. Liveness beats are tiny and frequent — one frame
// per worker per tick is pure protocol overhead on the pooled TCP path.
// The worker side batches every beat recorded at the same (virtual or
// wall) instant and ships the whole tick as a single worker.beats frame;
// the service fans the batch into the attached HeartbeatMonitor. The
// monitor's observable state is identical to per-beat delivery — the
// differential test in beats_test.go proves it — only the frame count
// changes.

// KindHeartbeats is the batched liveness message kind: one frame carrying
// every worker that beat in the sender's current tick.
const KindHeartbeats = "worker.beats"

// BeatsMsg is the payload of worker.beats.
type BeatsMsg struct {
	Workers []string `json:"workers"`
}

// ErrNoMonitor reports a worker.beats frame arriving at a service that has
// no HeartbeatMonitor attached.
var ErrNoMonitor = errors.New("coord: no heartbeat monitor attached")

// handleBeats fans a batched heartbeat frame into the monitor.
func handleBeats(hb *HeartbeatMonitor, payload []byte) ([]byte, error) {
	var req BeatsMsg
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("coord: bad worker.beats: %w", err)
	}
	if hb == nil {
		return nil, ErrNoMonitor
	}
	for _, w := range req.Workers {
		hb.Beat(w)
	}
	return []byte(`{}`), nil
}

// BeatBatcher coalesces heartbeats on the worker side. Beats recorded at
// the same clock instant accumulate (deduplicated) into one pending batch;
// the batch is shipped as a single frame by Flush, or lazily when a beat
// from a later instant arrives. Callers in a periodic reporting loop beat
// for each local worker and Flush before yielding the tick, so the
// monitor's receipt stamps match per-beat delivery exactly.
//
// A failed send keeps the batch: the next Flush (or tick) retries it
// merged with whatever accumulated since. Beats are never dropped, they
// only arrive later — exactly the liveness contract a lossy network already
// imposes.
type BeatBatcher struct {
	clk  clock.Clock
	send func(workers []string) error

	mu      sync.Mutex
	stamp   time.Time
	pending []string
	seen    map[string]bool
	frames  int64
}

// NewBeatBatcher creates a batcher reading tick identity from clk and
// shipping batches through send — typically Client.Beats, on either wire.
// send must not retain the slice.
func NewBeatBatcher(clk clock.Clock, send func(workers []string) error) (*BeatBatcher, error) {
	if clk == nil {
		return nil, ErrNilClock
	}
	if send == nil {
		return nil, errors.New("coord: nil send")
	}
	return &BeatBatcher{clk: clk, send: send, seen: make(map[string]bool)}, nil
}

// Beat records a heartbeat for worker in the current tick's batch. If the
// clock advanced since the batch was opened, the stale batch is flushed
// first; a flush failure is returned but the new beat is still recorded.
func (b *BeatBatcher) Beat(worker string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	var err error
	now := b.clk.Now()
	if len(b.pending) > 0 && !now.Equal(b.stamp) {
		err = b.flushLocked()
	}
	b.stamp = now
	if !b.seen[worker] {
		b.seen[worker] = true
		b.pending = append(b.pending, worker)
	}
	return err
}

// Flush ships the pending batch as one frame. A no-op when nothing is
// pending; on error the batch is retained for the next attempt.
func (b *BeatBatcher) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flushLocked()
}

func (b *BeatBatcher) flushLocked() error {
	if len(b.pending) == 0 {
		return nil
	}
	if err := b.send(b.pending); err != nil {
		return err
	}
	b.frames++
	b.pending = b.pending[:0]
	clear(b.seen)
	return nil
}

// Frames returns how many batched frames have been shipped — the
// differential observable against one-frame-per-beat delivery.
func (b *BeatBatcher) Frames() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.frames
}

// Pending returns the number of beats waiting in the open batch.
func (b *BeatBatcher) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}
