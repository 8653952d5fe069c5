// Package store is the versioned key-value store the application master
// persists its state machine to — the etcd substitute of Section V-D. Its
// traffic is one key per job: a CAS on every transition and one Get when a
// new incarnation recovers, so one mutex over one map serves it (DESIGN
// §13). Versions strictly increase per key; CAS enables the leader-recovery
// pattern (only the AM incarnation holding the latest version may advance
// the state machine).
package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Errors returned by the store.
var (
	ErrNotFound   = errors.New("store: key not found")
	ErrCASFailure = errors.New("store: compare-and-swap version mismatch")
)

// Entry is a value with its version.
type Entry struct {
	Value   []byte
	Version int64
}

// Store is an in-memory versioned KV store, safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	data map[string]Entry
	// ver is the last version handed out; every write takes the next one,
	// so per-key versions strictly increase.
	ver int64
}

// New creates an empty store.
func New() *Store {
	return &Store{data: make(map[string]Entry)}
}

// Get returns the entry for key. The value is a fresh copy the caller may
// mutate; the allocation-free variant is GetInto.
func (s *Store) Get(key string) (Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.data[key]
	if !ok {
		return Entry{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return Entry{Value: append([]byte{}, e.Value...), Version: e.Version}, nil
}

// GetInto appends the value for key to dst and returns the extended slice
// with the entry's version. It performs no allocation when dst has
// capacity; a missing key returns the bare ErrNotFound sentinel (no
// wrapping, to stay allocation-free).
//
//elan:hotpath
func (s *Store) GetInto(key string, dst []byte) ([]byte, int64, error) {
	s.mu.Lock()
	e, ok := s.data[key]
	if !ok {
		s.mu.Unlock()
		return dst, 0, ErrNotFound
	}
	dst = append(dst, e.Value...)
	s.mu.Unlock()
	return dst, e.Version, nil
}

// Put stores value under key unconditionally and returns the new version.
// Steady-state Put (existing key, value fits the entry's buffer) is
// allocation-free: the value is copied in place.
//
//elan:hotpath
func (s *Store) Put(key string, value []byte) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putLocked(key, value)
}

// CAS stores value under key only if the current version equals expected
// (use 0 for "key must not exist"). It returns the new version.
func (s *Store) CAS(key string, expected int64, value []byte) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur := s.data[key].Version; cur != expected {
		return 0, fmt.Errorf("%w: key %q at version %d, expected %d",
			ErrCASFailure, key, cur, expected)
	}
	return s.putLocked(key, value), nil
}

// putLocked installs a copy of value under key at the next version. The
// copy reuses the entry's buffer when it fits and grows it only on the
// first write of a key or for a larger value. Called with s.mu held.
//
//elan:hotpath
func (s *Store) putLocked(key string, value []byte) int64 {
	s.ver++
	s.data[key] = Entry{Value: append(s.data[key].Value[:0], value...), Version: s.ver}
	return s.ver
}

// Keys returns all keys currently present, sorted (for inspection and
// tests).
func (s *Store) Keys() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.data))
	for k := range s.data {
		out = append(out, k)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}
