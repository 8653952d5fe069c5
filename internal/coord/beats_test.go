package coord

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/store"
	"github.com/elan-sys/elan/internal/transport"
)

// TestBeatBatcherDifferential is the coalescing proof: the same beat
// pattern delivered per-beat and batched-per-tick (through the exact
// service decode path) leaves the two monitors with identical liveness
// state — tracked sets and expiry decisions — while the batched side
// ships one frame per tick instead of one per beat.
func TestBeatBatcherDifferential(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	direct, err := NewHeartbeatMonitor(sim)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewHeartbeatMonitor(sim)
	if err != nil {
		t.Fatal(err)
	}
	var frames, framedBeats int
	send := func(ws []string) error {
		p, err := json.Marshal(BeatsMsg{Workers: ws})
		if err != nil {
			return err
		}
		if _, err := handleBeats(batched, p); err != nil {
			return err
		}
		frames++
		framedBeats += len(ws)
		return nil
	}
	b, err := NewBeatBatcher(sim, send)
	if err != nil {
		t.Fatal(err)
	}

	// 6 ticks; w3 stops beating after tick 2, and every tick each worker
	// beats twice (the dedup case: real reporting loops touch liveness at
	// both the report and the coordinate step).
	const ticks = 6
	tick := time.Second
	var directBeats int
	for i := 0; i < ticks; i++ {
		workers := []string{"w1", "w2", "w3"}
		if i > 2 {
			workers = workers[:2]
		}
		for _, w := range workers {
			for r := 0; r < 2; r++ {
				direct.Beat(w)
				if err := b.Beat(w); err != nil {
					t.Fatalf("tick %d: Beat(%s): %v", i, w, err)
				}
				directBeats++
			}
		}
		if err := b.Flush(); err != nil {
			t.Fatalf("tick %d: Flush: %v", i, err)
		}
		sim.Advance(tick)
	}

	if got, want := direct.Tracked(), batched.Tracked(); !reflect.DeepEqual(got, want) {
		t.Fatalf("tracked sets differ: direct %v, batched %v", got, want)
	}
	for _, ttl := range []time.Duration{tick, 2 * tick, 3 * tick, 4 * tick, 10 * tick} {
		d, bx := direct.Expired(ttl), batched.Expired(ttl)
		if !reflect.DeepEqual(d, bx) {
			t.Fatalf("Expired(%v) differ: direct %v, batched %v", ttl, d, bx)
		}
	}
	// w3 did lapse — the differential covers a real expiry, not two empty sets.
	if exp := batched.Expired(3 * tick); len(exp) != 1 || exp[0] != "w3" {
		t.Fatalf("Expired(3t) = %v, want [w3]", exp)
	}
	if frames != ticks {
		t.Fatalf("frames = %d, want one per tick (%d)", frames, ticks)
	}
	if b.Frames() != int64(ticks) {
		t.Fatalf("Frames() = %d, want %d", b.Frames(), ticks)
	}
	// Dedup: 2 beats per worker per tick collapse to one wire entry.
	if wantFramed := directBeats / 2; framedBeats != wantFramed {
		t.Fatalf("framed beats = %d, want %d (deduped)", framedBeats, wantFramed)
	}
	if framedBeats >= directBeats {
		t.Fatalf("coalescing saved nothing: %d framed vs %d direct", framedBeats, directBeats)
	}
}

// TestBeatBatcherRetainsOnSendFailure: a failed flush keeps the batch; the
// next flush ships it merged with newer beats, so no beat is ever lost.
func TestBeatBatcherRetainsOnSendFailure(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	fail := true
	var got []string
	send := func(ws []string) error {
		if fail {
			return errors.New("boom")
		}
		got = append(got[:0], ws...)
		return nil
	}
	b, err := NewBeatBatcher(sim, send)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Beat("w1"); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err == nil {
		t.Fatal("Flush succeeded through failing send")
	}
	if b.Pending() != 1 {
		t.Fatalf("Pending = %d after failed flush, want 1", b.Pending())
	}
	sim.Advance(time.Second)
	// The next tick's beat triggers the lazy flush, which also fails —
	// the error surfaces but both beats stay pending.
	if err := b.Beat("w2"); err == nil {
		t.Fatal("lazy flush error not surfaced")
	}
	if b.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2 (merged)", b.Pending())
	}
	fail = false
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"w1", "w2"}) {
		t.Fatalf("recovered frame = %v, want [w1 w2]", got)
	}
	if b.Pending() != 0 {
		t.Fatalf("Pending = %d after successful flush", b.Pending())
	}
}

// TestBeatsOverBus: the worker.beats kind lands in the bus service's
// attached monitor; without a monitor the frame is rejected.
func TestBeatsOverBus(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	t.Cleanup(sim.AutoAdvance(0))
	cfg := transport.DefaultBusConfig()
	cfg.Clock = sim
	bus := transport.NewBus(cfg)
	t.Cleanup(bus.Close)
	am, err := NewAM("beats-job", store.New())
	if err != nil {
		t.Fatal(err)
	}
	hb, err := NewHeartbeatMonitor(sim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServiceWith(context.Background(), am, bus, "am", nil, hb); err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(bus, "w1", "am")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Beats([]string{"w1", "w2"}); err != nil {
		t.Fatalf("Beats: %v", err)
	}
	if got := hb.Tracked(); !reflect.DeepEqual(got, []string{"w1", "w2"}) {
		t.Fatalf("Tracked = %v", got)
	}

	if _, err := NewService(am, bus, "am-bare"); err != nil {
		t.Fatal(err)
	}
	cl2, err := NewClient(bus, "w2", "am-bare")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl2.Beats([]string{"w9"}); err == nil || !strings.Contains(err.Error(), "no heartbeat monitor") {
		t.Fatalf("Beats without monitor = %v, want ErrNoMonitor", err)
	}
}

// TestBeatsOverTCP: the batcher wired to a TCP client coalesces a tick of
// beats into one frame over the wire and the TCP service fans it into the
// monitor.
func TestBeatsOverTCP(t *testing.T) {
	am, err := NewAM("beats-tcp", store.New())
	if err != nil {
		t.Fatal(err)
	}
	hb, err := NewHeartbeatMonitor(clock.Wall{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewTCPService(am, "127.0.0.1:0", nil, hb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	cl := NewTCPClient(svc.Addr)
	t.Cleanup(cl.Close)

	sim := clock.NewSim(time.Unix(0, 0))
	b, err := NewBeatBatcher(sim, cl.Beats)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"w1", "w2", "w3", "w1"} {
		if err := b.Beat(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := hb.Tracked(); !reflect.DeepEqual(got, []string{"w1", "w2", "w3"}) {
		t.Fatalf("Tracked = %v", got)
	}
	if b.Frames() != 1 {
		t.Fatalf("Frames = %d, want 1", b.Frames())
	}
}
