package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/elan-sys/elan/internal/racecheck"
)

// TestStorePutSteadyStateZeroAllocs pins the sharded store's write fast
// path: once a key exists and the incoming value fits its buffer, Put
// copies in place — no fresh value buffer, no event (the key is
// unwatched), no instrument overhead (nil counters are no-ops).
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

// BenchmarkStoreMixed runs 80 % GetInto and 20 % Put over 256 keys of 1 KB
// from 1, 64 and 256 goroutines. ns/op is wall time over all goroutines'
// operations. The mix itself allocates nothing; allocs/op counts each
// goroutine's start and read buffer, so it falls toward zero as b.N grows.
func BenchmarkStoreMixed(b *testing.B) {
	const keys = 256
	names := make([]string, keys)
	value := make([]byte, 1024)
	s := New()
	for i := range names {
		names[i] = fmt.Sprintf("job/worker-%03d", i)
		s.Put(names[i], value)
	}
	for _, conc := range []int{1, 64, 256} {
		b.Run(fmt.Sprintf("c%d", conc), func(b *testing.B) {
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for g := 0; g < conc; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := make([]byte, 0, len(value))
					x := uint64(g)*2654435761 + 1 // xorshift state, one per goroutine
					for next.Add(1) <= int64(b.N) {
						x ^= x << 13
						x ^= x >> 7
						x ^= x << 17
						key := names[x%keys]
						if x%10 >= 8 {
							s.Put(key, value)
							continue
						}
						var err error
						if buf, _, err = s.GetInto(key, buf[:0]); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
