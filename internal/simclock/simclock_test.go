package simclock

import (
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	c := New()
	var got []string
	c.After(3*time.Second, "c", func() { got = append(got, "c") })
	c.After(1*time.Second, "a", func() { got = append(got, "a") })
	c.After(2*time.Second, "b", func() { got = append(got, "b") })
	c.Advance(3 * time.Second)
	want := "abc"
	if s := join(got); s != want {
		t.Fatalf("order = %q, want %q", s, want)
	}
	if c.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", c.Now())
	}
}

func TestTieBreakInsertionOrder(t *testing.T) {
	c := New()
	var got []string
	for _, name := range []string{"x", "y", "z"} {
		name := name
		c.After(time.Second, name, func() { got = append(got, name) })
	}
	c.Advance(time.Second)
	if s := join(got); s != "xyz" {
		t.Fatalf("tie order = %q, want xyz", s)
	}
}

func TestScheduleInPast(t *testing.T) {
	c := New()
	c.After(time.Second, "advance", func() {})
	c.Advance(time.Second)
	if _, err := c.Schedule(0, "past", func() {}); err == nil {
		t.Fatal("scheduling in the past succeeded, want error")
	}
}

func TestNestedScheduling(t *testing.T) {
	c := New()
	var fired []time.Duration
	c.After(time.Second, "outer", func() {
		c.After(2*time.Second, "inner", func() {
			fired = append(fired, c.Now())
		})
	})
	c.Advance(3 * time.Second)
	if len(fired) != 1 || fired[0] != 3*time.Second {
		t.Fatalf("inner fired at %v, want [3s]", fired)
	}
}

func TestCancel(t *testing.T) {
	c := New()
	ran := false
	ev := c.After(time.Second, "doomed", func() { ran = true })
	if !c.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if c.Cancel(ev) {
		t.Fatal("Cancel returned true for already-cancelled event")
	}
	c.Advance(time.Second)
	if ran {
		t.Fatal("cancelled event still ran")
	}
}

func TestRunDeadline(t *testing.T) {
	c := New()
	var fired int
	c.After(time.Second, "in", func() { fired++ })
	c.After(10*time.Second, "out", func() { fired++ })
	c.Run(5 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if c.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", c.Now())
	}
	if c.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", c.Pending())
	}
}

func TestAdvance(t *testing.T) {
	c := New()
	var at time.Duration
	c.After(2*time.Second, "ev", func() { at = c.Now() })
	c.Advance(5 * time.Second)
	if at != 2*time.Second {
		t.Fatalf("event fired at %v, want 2s", at)
	}
	if c.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", c.Now())
	}
	c.Advance(-time.Second)
	if c.Now() != 5*time.Second {
		t.Fatalf("Now after negative Advance = %v, want 5s unchanged", c.Now())
	}
}

func TestNegativeAfterClamped(t *testing.T) {
	c := New()
	ran := false
	c.After(-time.Second, "neg", func() { ran = true })
	c.Advance(0)
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
	if c.Now() != 0 {
		t.Fatalf("Now = %v, want 0", c.Now())
	}
}

func join(ss []string) string {
	out := ""
	for _, s := range ss {
		out += s
	}
	return out
}
