// Package spanend exercises the span-lifetime analyzer. The types mirror
// internal/telemetry's shape (the analyzer matches the Start*/Child/End
// method names syntactically, so the fixture stays dependency-free).
package spanend

type Span struct{}

func (s *Span) End()                    {}
func (s *Span) Annotate(k, v string)    {}
func (s *Span) Child(name string) *Span { return &Span{} }

type TraceContext struct{}

type Tracer struct{}

func (t *Tracer) StartSpan(name string) *Span                       { return &Span{} }
func (t *Tracer) StartRemoteSpan(name string, p TraceContext) *Span { return &Span{} }

var sink *Span

// leakOnEarlyReturn: the error path returns before End.
func leakOnEarlyReturn(t *Tracer, fail bool) error {
	sp := t.StartSpan("op") // want `span assigned to sp does not reach End\(\) on every path`
	if fail {
		return errDummy
	}
	sp.End()
	return nil
}

// leakOnOneBranch: End on one arm does not excuse the other.
func leakOnOneBranch(t *Tracer, ok bool) {
	sp := t.StartSpan("op") // want `span assigned to sp does not reach End\(\) on every path`
	if ok {
		sp.End()
	}
}

// leakRemote: a remote child minted from a message's context carries the
// same obligation; the error path returns before End.
func leakRemote(t *Tracer, parent TraceContext, fail bool) error {
	sp := t.StartRemoteSpan("op", parent) // want `span assigned to sp does not reach End\(\) on every path`
	if fail {
		return errDummy
	}
	sp.End()
	return nil
}

// leakChild: child spans carry the same obligation.
func leakChild(parent *Span, skip bool) {
	c := parent.Child("sub") // want `span assigned to c does not reach End\(\) on every path`
	if skip {
		return
	}
	c.End()
}

// discarded: the result never lands anywhere.
func discarded(t *Tracer) {
	t.StartSpan("op") // want `span acquired and immediately discarded`
}

// deferEnd: the canonical pattern; early returns are covered.
func deferEnd(t *Tracer, fail bool) error {
	sp := t.StartSpan("op")
	defer sp.End()
	sp.Annotate("k", "v")
	if fail {
		return errDummy
	}
	return nil
}

// endOnEveryReturn: explicit End on all paths is equally fine.
func endOnEveryReturn(t *Tracer, fail bool) error {
	sp := t.StartSpan("op")
	if fail {
		sp.End()
		return errDummy
	}
	sp.End()
	return nil
}

// branchAcquire: acquisition on both arms of a branch, one End at the
// bottom.
func branchAcquire(t *Tracer, parent TraceContext, remote bool) {
	var sp *Span
	if remote {
		sp = t.StartRemoteSpan("op", parent)
	} else {
		sp = t.StartSpan("op")
	}
	sp.Annotate("mode", "x")
	sp.End()
}

// escapes: handing the span away transfers the obligation.
func escapeByReturn(t *Tracer) *Span {
	sp := t.StartSpan("op")
	return sp
}

func escapeToStruct(t *Tracer) {
	sp := t.StartSpan("op")
	sink = sp
}

func escapeToGoroutine(t *Tracer, done chan struct{}) {
	sp := t.StartSpan("op")
	go func() {
		sp.End()
		close(done)
	}()
}

// panicPathIsNotALeak: abort paths are exempt from the obligation.
func panicPathIsNotALeak(t *Tracer, bad bool) {
	sp := t.StartSpan("op")
	if bad {
		panic("bad")
	}
	sp.End()
}

// loopSpan: per-iteration spans Ended in the loop are clean.
func loopSpan(t *Tracer, n int) {
	for i := 0; i < n; i++ {
		sp := t.StartSpan("iter")
		sp.Annotate("i", "x")
		sp.End()
	}
}

// waived: an acknowledged intentional leak, justified.
func waived(t *Tracer) {
	sp := t.StartSpan("op") //elan:vet-allow spanend — testdata: demonstrates the waiver pragma
	sp.Annotate("k", "v")
}

var errDummy = errOf("dummy")

type errOf string

func (e errOf) Error() string { return string(e) }
