package store

import (
	"testing"

	"github.com/elan-sys/elan/internal/racecheck"
)

// TestStorePutSteadyStateZeroAllocs pins the store's write fast path: once
// a key exists and the incoming value fits its buffer, Put copies in place
// and allocates no fresh value buffer.
func TestStorePutSteadyStateZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race CI job")
	}
	s := New()
	val := make([]byte, 1024)
	s.Put("am/state", val) // cold first write allocates the entry buffer
	if avg := testing.AllocsPerRun(1000, func() {
		s.Put("am/state", val)
	}); avg != 0 {
		t.Fatalf("%v allocs per steady-state Put, want 0", avg)
	}
}

// TestStoreGetIntoZeroAllocs pins the read fast path: GetInto appends into
// the caller's buffer and wraps no error, so a warm read allocates
// nothing.
func TestStoreGetIntoZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race CI job")
	}
	s := New()
	s.Put("am/state", make([]byte, 1024))
	dst := make([]byte, 0, 2048)
	if avg := testing.AllocsPerRun(1000, func() {
		dst = dst[:0]
		var err error
		dst, _, err = s.GetInto("am/state", dst)
		if err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("%v allocs per GetInto, want 0", avg)
	}
}

// TestStoreGetIntoMissZeroAllocs: the not-found path returns the bare
// sentinel, so even misses stay allocation-free.
func TestStoreGetIntoMissZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race CI job")
	}
	s := New()
	dst := make([]byte, 0, 16)
	if avg := testing.AllocsPerRun(1000, func() {
		dst, _, _ = s.GetInto("missing", dst)
	}); avg != 0 {
		t.Fatalf("%v allocs per GetInto miss, want 0", avg)
	}
}

// BenchmarkStoreAMKey times the traffic the store serves: one key, one
// caller, at the size of a persisted AM state. cas is the AM's persist on
// every transition (a CAS at the current version); get_into is a warm read
// into a reused buffer. Both allocate nothing.
func BenchmarkStoreAMKey(b *testing.B) {
	value := make([]byte, 512)
	s := New()
	ver := s.Put("am/bench", value)
	b.Run("cas", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if ver, err = s.CAS("am/bench", ver, value); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("get_into", func(b *testing.B) {
		buf := make([]byte, 0, len(value))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, _, err = s.GetInto("am/bench", buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
