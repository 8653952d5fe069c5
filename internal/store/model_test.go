package store

import (
	"bytes"
	"errors"
	"slices"
	"sort"
	"testing"
)

// modelEntry is the oracle's view of one key: a plain copy of the value and
// the version the store last returned for it.
type modelEntry struct {
	value   []byte
	version int64
}

// opSeeds are op sequences that reach, between them, every operation and
// the interactions that matter: a create-only CAS (expected 0) on a key that
// exists, CAS at the current version and one off it on either side, a Put
// whose caller then reuses its buffer, and values that shrink and regrow the
// entry's buffer in place.
var opSeeds = [][]byte{
	{0, 12, 2, 0, 1, 3, 2, 0, 4, 0},
	{6, 3, 6, 0, 6, 1, 6, 2, 8, 1, 5, 32, 5, 4, 5, 32, 7, 0, 4, 0},
	{1, 0, 11, 3, 1, 4, 3, 2, 13, 8, 3, 1, 14, 0},
}

// FuzzStoreOps checks op sequences chosen by the fuzzer against the
// oracle; plain `go test` runs the seed corpus.
func FuzzStoreOps(f *testing.F) {
	for _, seed := range opSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		runOps(t, data)
	})
}

// runOps interprets data as a sequence of operations, two bytes each — an
// op byte naming the operation and one of three keys, an argument byte —
// and checks every result against a plain map of value and version. After
// each operation it scribbles over every slice it handed to or got from the
// store, so a store that aliases one fails the next read of that key.
func runOps(t *testing.T, data []byte) {
	s := New()
	model := map[string]modelEntry{}
	keys := []string{"am/a", "am/b", "am/c"}
	for step := 0; len(data) >= 2; step++ {
		op, arg := data[0], int(data[1])
		data = data[2:]
		key := keys[int(op/5)%len(keys)]
		cur := model[key]
		value := make([]byte, (arg>>2)%9)
		for i := range value {
			value[i] = byte(step*7 + i)
		}
		switch op % 5 {
		case 0: // Put
			v := s.Put(key, value)
			if v <= cur.version {
				t.Fatalf("step %d: Put(%s) version %d, not above %d", step, key, v, cur.version)
			}
			model[key] = modelEntry{value: slices.Clone(value), version: v}
		case 1: // CAS at the current version, one off it, or 0
			expected := [...]int64{cur.version, cur.version + 1, cur.version - 1, 0}[arg%4]
			v, err := s.CAS(key, expected, value)
			if want := expected == cur.version; (err == nil) != want {
				t.Fatalf("step %d: CAS(%s, %d) at version %d = %v, want success %v",
					step, key, expected, cur.version, err, want)
			}
			if err != nil {
				if !errors.Is(err, ErrCASFailure) {
					t.Fatalf("step %d: CAS(%s) = %v, want ErrCASFailure", step, key, err)
				}
				break
			}
			if v <= cur.version {
				t.Fatalf("step %d: CAS(%s) version %d, not above %d", step, key, v, cur.version)
			}
			model[key] = modelEntry{value: slices.Clone(value), version: v}
		case 2: // Get
			e, err := s.Get(key)
			checkRead(t, step, key, cur, e.Value, e.Version, err)
			value = e.Value
		case 3: // GetInto, after a prefix the store must leave alone
			prefix := bytes.Repeat([]byte{0xee}, arg%3)
			out, v, err := s.GetInto(key, slices.Clone(prefix))
			if !bytes.HasPrefix(out, prefix) {
				t.Fatalf("step %d: GetInto(%s) clobbered the prefix: %q", step, key, out)
			}
			checkRead(t, step, key, cur, out[len(prefix):], v, err)
			value = out
		case 4: // Keys
			want := make([]string, 0, len(model))
			for k := range model {
				want = append(want, k)
			}
			sort.Strings(want)
			if got := s.Keys(); !slices.Equal(got, want) {
				t.Fatalf("step %d: Keys = %v, want %v", step, got, want)
			}
		}
		for i := range value {
			value[i] ^= 0xff
		}
	}
}

// checkRead compares a Get or GetInto result with the model's entry.
func checkRead(t *testing.T, step int, key string, want modelEntry, got []byte, version int64, err error) {
	t.Helper()
	if want.version == 0 {
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("step %d: read of absent %s = %v, want ErrNotFound", step, key, err)
		}
		return
	}
	if err != nil || version != want.version || !bytes.Equal(got, want.value) {
		t.Fatalf("step %d: read %s = %q at %d (%v), want %q at %d",
			step, key, got, version, err, want.value, want.version)
	}
}
