package store

import (
	"errors"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	s := New()
	if _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing = %v", err)
	}
	v1 := s.Put("k", []byte("a"))
	if v1 <= 0 {
		t.Fatalf("version = %d", v1)
	}
	e, err := s.Get("k")
	if err != nil || string(e.Value) != "a" || e.Version != v1 {
		t.Fatalf("Get = %+v, %v", e, err)
	}
	v2 := s.Put("k", []byte("b"))
	if v2 <= v1 {
		t.Fatalf("versions not increasing: %d -> %d", v1, v2)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := New()
	s.Put("k", []byte("abc"))
	e, err := s.Get("k")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	e.Value[0] = 'X'
	e2, _ := s.Get("k")
	if string(e2.Value) != "abc" {
		t.Fatal("Get exposed internal storage")
	}
}

func TestPutCopiesInput(t *testing.T) {
	s := New()
	buf := []byte("abc")
	s.Put("k", buf)
	buf[0] = 'X'
	e, _ := s.Get("k")
	if string(e.Value) != "abc" {
		t.Fatal("Put retained caller's buffer")
	}
}

func TestCAS(t *testing.T) {
	s := New()
	// Create-if-absent with expected version 0.
	v1, err := s.CAS("k", 0, []byte("a"))
	if err != nil {
		t.Fatalf("CAS create: %v", err)
	}
	// Wrong version fails.
	if _, err := s.CAS("k", 0, []byte("b")); !errors.Is(err, ErrCASFailure) {
		t.Fatalf("CAS stale = %v", err)
	}
	// Right version succeeds.
	v2, err := s.CAS("k", v1, []byte("b"))
	if err != nil || v2 <= v1 {
		t.Fatalf("CAS update = %d, %v", v2, err)
	}
	e, _ := s.Get("k")
	if string(e.Value) != "b" {
		t.Fatalf("value = %q", e.Value)
	}
}

func TestCASLeaderElectionPattern(t *testing.T) {
	// Two concurrent "AM incarnations" race to create the same key; exactly
	// one wins.
	s := New()
	var wins int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.CAS("leader", 0, []byte("me")); err == nil {
				mu.Lock()
				wins++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if wins != 1 {
		t.Fatalf("wins = %d, want 1", wins)
	}
}

func TestKeys(t *testing.T) {
	s := New()
	s.Put("a", nil)
	s.Put("b", nil)
	keys := s.Keys()
	if len(keys) != 2 {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestKeysSorted(t *testing.T) {
	s := New()
	s.Put("b", nil)
	s.Put("a", nil)
	s.Put("c", nil)
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestGetInto(t *testing.T) {
	s := New()
	dst := make([]byte, 0, 16)
	if _, _, err := s.GetInto("missing", dst); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetInto missing = %v", err)
	}
	v := s.Put("k", []byte("abc"))
	out, ver, err := s.GetInto("k", dst)
	if err != nil || string(out) != "abc" || ver != v {
		t.Fatalf("GetInto = %q, %d, %v", out, ver, err)
	}
	// Appends after existing content.
	out2, _, err := s.GetInto("k", []byte("x"))
	if err != nil || string(out2) != "xabc" {
		t.Fatalf("GetInto append = %q, %v", out2, err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := string(rune('a' + g%4))
			for i := 0; i < 100; i++ {
				s.Put(key, []byte{byte(i)})
				if _, err := s.Get(key); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
