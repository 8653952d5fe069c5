package coord

import (
	"reflect"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/clock"
)

// All heartbeat tests run entirely on the sim clock: no real sleeps, fully
// deterministic expiry ordering.

func simMonitor(t *testing.T) (*HeartbeatMonitor, *clock.Sim) {
	t.Helper()
	sim := clock.NewSim(time.Unix(1000, 0))
	h, err := NewHeartbeatMonitor(sim)
	if err != nil {
		t.Fatalf("NewHeartbeatMonitor: %v", err)
	}
	return h, sim
}

func TestHeartbeatMonitorBasics(t *testing.T) {
	if _, err := NewHeartbeatMonitor(nil); err == nil {
		t.Fatal("nil clock accepted")
	}
	h, sim := simMonitor(t)
	h.Beat("w1")
	h.Beat("w2")
	if got := h.Tracked(); len(got) != 2 || got[0] != "w1" || got[1] != "w2" {
		t.Fatalf("Tracked = %v", got)
	}
	if got := h.Expired(10 * time.Second); len(got) != 0 {
		t.Fatalf("fresh workers expired: %v", got)
	}
	// w1 keeps beating, w2 goes silent.
	sim.Advance(8 * time.Second)
	h.Beat("w1")
	sim.Advance(8 * time.Second)
	got := h.Expired(10 * time.Second)
	if len(got) != 1 || got[0] != "w2" {
		t.Fatalf("Expired = %v, want [w2]", got)
	}
	// A worker that leaves deliberately is forgotten, not reported dead.
	h.Forget("w2")
	if got := h.Expired(10 * time.Second); len(got) != 0 {
		t.Fatalf("forgotten worker reported: %v", got)
	}
}

func TestHeartbeatExactTTLBoundary(t *testing.T) {
	// The TTL boundary is inclusive: a beat exactly ttl ago is alive; one
	// nanosecond older is dead. Only virtual time can pin this down.
	h, sim := simMonitor(t)
	h.Beat("w1")
	sim.Advance(10 * time.Second)
	if got := h.Expired(10 * time.Second); len(got) != 0 {
		t.Fatalf("worker expired at exactly ttl: %v", got)
	}
	sim.Advance(time.Nanosecond)
	if got := h.Expired(10 * time.Second); len(got) != 1 || got[0] != "w1" {
		t.Fatalf("Expired just past ttl = %v, want [w1]", got)
	}
}

func TestHeartbeatLateArrivalRevives(t *testing.T) {
	// A worker that was already reported expired comes back (a paused
	// process resumes): its late beat revives it.
	h, sim := simMonitor(t)
	h.Beat("w1")
	sim.Advance(11 * time.Second)
	if got := h.Expired(10 * time.Second); len(got) != 1 {
		t.Fatalf("Expired = %v, want [w1]", got)
	}
	h.Beat("w1") // late arrival
	if got := h.Expired(10 * time.Second); len(got) != 0 {
		t.Fatalf("revived worker still expired: %v", got)
	}
	sim.Advance(10*time.Second + time.Millisecond)
	if got := h.Expired(10 * time.Second); len(got) != 1 || got[0] != "w1" {
		t.Fatalf("re-expiry after revival = %v", got)
	}
}

func TestHeartbeatMultiWorkerExpiryOrdering(t *testing.T) {
	// Workers go silent at staggered virtual times; the expired set grows
	// in exactly that order, and is always sorted.
	h, sim := simMonitor(t)
	const ttl = 10 * time.Second
	h.Beat("w3") // silent from t=0
	sim.Advance(2 * time.Second)
	h.Beat("w1") // silent from t=2
	sim.Advance(2 * time.Second)
	h.Beat("w2") // silent from t=4
	// t=4: nobody expired yet.
	if got := h.Expired(ttl); len(got) != 0 {
		t.Fatalf("t=4s Expired = %v", got)
	}
	sim.Advance(6*time.Second + time.Millisecond) // t≈10: only w3 past ttl
	if got := h.Expired(ttl); !reflect.DeepEqual(got, []string{"w3"}) {
		t.Fatalf("t=10s Expired = %v, want [w3]", got)
	}
	sim.Advance(2 * time.Second) // t≈12: w1 joins
	if got := h.Expired(ttl); !reflect.DeepEqual(got, []string{"w1", "w3"}) {
		t.Fatalf("t=12s Expired = %v, want [w1 w3]", got)
	}
	sim.Advance(2 * time.Second) // t≈14: all three
	if got := h.Expired(ttl); !reflect.DeepEqual(got, []string{"w1", "w2", "w3"}) {
		t.Fatalf("t=14s Expired = %v, want [w1 w2 w3]", got)
	}
}

func TestHeartbeatDrivesReplacement(t *testing.T) {
	// The failure-mitigation loop: a worker stops heartbeating; the
	// scheduler requests a migration-style replacement through the AM.
	h, sim := simMonitor(t)
	am, _ := newAM(t)
	workers := []string{"w1", "w2", "w3"}
	for _, w := range workers {
		h.Beat(w)
	}
	sim.Advance(5 * time.Second)
	h.Beat("w1")
	h.Beat("w2") // w3 died
	sim.Advance(6 * time.Second)
	dead := h.Expired(10 * time.Second)
	if len(dead) != 1 || dead[0] != "w3" {
		t.Fatalf("dead = %v", dead)
	}
	// Replace the dead worker: migrate w3's rank to w4.
	if err := am.RequestAdjustment(0, Migrate, []string{"w4"}, dead); err != nil {
		t.Fatalf("RequestAdjustment: %v", err)
	}
	if err := am.ReportReady("w4"); err != nil {
		t.Fatalf("ReportReady: %v", err)
	}
	adj, ok, err := am.Coordinate(0)
	if err != nil || !ok {
		t.Fatalf("Coordinate: %v %v", ok, err)
	}
	if adj.Kind != Migrate || adj.Remove[0] != "w3" || adj.Add[0] != "w4" {
		t.Fatalf("adjustment = %+v", adj)
	}
	h.Forget("w3")
	h.Beat("w4")
	if got := h.Expired(10 * time.Second); len(got) != 0 {
		t.Fatalf("post-replacement expired = %v", got)
	}
}
