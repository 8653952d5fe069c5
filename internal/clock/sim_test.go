package clock

import (
	"testing"
	"time"
)

// schedule registers fn on s, d from now, as a waiter would.
func schedule(s *Sim, d time.Duration, fn func()) *event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.after(d, fn)
}

func TestScheduleOrdering(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var got string
	schedule(s, 3*time.Second, func() { got += "c" })
	schedule(s, 1*time.Second, func() { got += "a" })
	schedule(s, 2*time.Second, func() { got += "b" })
	s.Advance(3 * time.Second)
	if got != "abc" {
		t.Fatalf("order = %q, want abc", got)
	}
	if s.Elapsed() != 3*time.Second {
		t.Fatalf("Elapsed = %v, want 3s", s.Elapsed())
	}
}

func TestTieBreakInsertionOrder(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var got string
	for _, name := range []string{"x", "y", "z"} {
		name := name
		schedule(s, time.Second, func() { got += name })
	}
	s.Advance(time.Second)
	if got != "xyz" {
		t.Fatalf("tie order = %q, want xyz", got)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var fired []time.Duration
	schedule(s, time.Second, func() {
		// Callbacks run with s.mu held, so they register directly.
		s.after(2*time.Second, func() { fired = append(fired, s.now) })
	})
	s.Advance(3 * time.Second)
	if len(fired) != 1 || fired[0] != 3*time.Second {
		t.Fatalf("inner fired at %v, want [3s]", fired)
	}
}

func TestCancel(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	ran := false
	ev := schedule(s, time.Second, func() { ran = true })
	s.mu.Lock()
	first, second := s.cancel(ev), s.cancel(ev)
	s.mu.Unlock()
	if !first {
		t.Fatal("cancel returned false for pending event")
	}
	if second {
		t.Fatal("cancel returned true for already-cancelled event")
	}
	s.Advance(time.Second)
	if ran {
		t.Fatal("cancelled event still ran")
	}
}

// TestAdvance covers the window's deadline: an event inside it fires at its
// own time, one past it stays pending until a later Advance reaches it.
func TestAdvance(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var at, late time.Duration
	schedule(s, 2*time.Second, func() { at = s.now })
	schedule(s, 10*time.Second, func() { late = s.now })
	s.Advance(5 * time.Second)
	if at != 2*time.Second {
		t.Fatalf("event fired at %v, want 2s", at)
	}
	if s.Elapsed() != 5*time.Second {
		t.Fatalf("Elapsed = %v, want 5s", s.Elapsed())
	}
	if late != 0 || s.Pending() != 1 {
		t.Fatalf("event past the window: fired at %v, %d pending; want unfired, 1 pending", late, s.Pending())
	}
	s.Advance(-time.Second)
	if s.Elapsed() != 5*time.Second {
		t.Fatalf("Elapsed after negative Advance = %v, want 5s unchanged", s.Elapsed())
	}
	s.Advance(5 * time.Second)
	if late != 10*time.Second || s.Pending() != 0 {
		t.Fatalf("late event fired at %v, %d pending; want 10s, 0 pending", late, s.Pending())
	}
}

func TestNegativeAfterClamped(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	ran := false
	schedule(s, -time.Second, func() { ran = true })
	s.Advance(0)
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
	if s.Elapsed() != 0 {
		t.Fatalf("Elapsed = %v, want 0", s.Elapsed())
	}
}
