package spanend

// finish takes over the span it is handed and Ends it.
func finish(sp *Span, note string) {
	sp.Annotate("note", note)
	sp.End()
}

// escapeToCall: a span handed to a call as an argument is the callee's to
// End, on every path after the call.
func escapeToCall(t *Tracer, fail bool) error {
	sp := t.StartSpan("op")
	finish(sp, "handed off")
	if fail {
		return errDummy
	}
	return nil
}
