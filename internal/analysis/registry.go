package analysis

import "fmt"

// All returns every registered analyzer in deterministic order.
func All() []*Analyzer {
	return []*Analyzer{
		ClockPolicy,
		CtxBlocking,
		ErrIdentity,
		GlobalRand,
		GoroutineFatal,
		HotPathAlloc,
		LockHeld,
		SpanEnd,
	}
}

// ByName resolves a comma-separated list of analyzer names. An empty list
// selects all analyzers.
func ByName(names ...string) ([]*Analyzer, error) {
	if len(names) == 0 {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range names {
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %v)", name, analyzerNames())
		}
		out = append(out, a)
	}
	return out, nil
}

func analyzerNames() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return names
}
