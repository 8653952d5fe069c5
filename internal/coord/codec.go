package coord

import (
	"encoding/binary"
	"errors"

	"github.com/elan-sys/elan/internal/telemetry"
)

// The one binary codec of the coord package: every message payload and
// reply on both wires (service.go states the layouts), and the AM's
// persisted state. Integers are varints, strings and string lists are
// length-prefixed, and a flag is one byte, 0 or 1. Encoders append to a
// caller's buffer. Decoders are strict: they refuse truncated input,
// trailing bytes, non-minimal varints and flags other than 0 or 1, so an
// accepted payload re-encodes to itself. A count prefix is checked against
// the bytes left before anything is allocated. An empty list decodes as
// nil.
//
// The persisted state is the AM's two adjustments and nothing derived from
// them:
//
//	flag    pending adjustment follows
//	        adjustment, then one flag per Add entry in Add order: reported
//	flag    last adjustment follows
//	        adjustment
//
// An adjustment is varint seq, varint kind, list add, list remove, trace.
// A trace is uvarint trace ID, uvarint span ID, string proc. The decoder
// also refuses a record the AM cannot write, such as an open adjustment not
// numbered last+1.

// errMalformed is every decoder's error: the payload is not one the
// encoder writes.
var errMalformed = errors.New("coord: malformed payload")

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendFlag(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendTrace(b []byte, tc telemetry.TraceContext) []byte {
	b = binary.AppendUvarint(b, tc.Trace)
	b = binary.AppendUvarint(b, tc.Span)
	return appendString(b, tc.Proc)
}

func appendAdjustment(b []byte, a *Adjustment) []byte {
	b = binary.AppendVarint(b, a.Seq)
	b = binary.AppendVarint(b, int64(a.Kind))
	b = appendStrings(b, a.Add)
	b = appendStrings(b, a.Remove)
	return appendTrace(b, a.Trace)
}

// reader decodes one payload. The first failure sticks in err, and every
// later read returns a zero value.
type reader struct {
	b   []byte
	err error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	// n <= 0 is truncation or overflow; a last byte of 0 after the first
	// is a non-minimal encoding.
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.err = errMalformed
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) varint() int64 {
	u := r.uvarint()
	// The zig-zag inverse of binary.AppendVarint.
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// int reads a varint that must fit an int.
func (r *reader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.err = errMalformed
		return 0
	}
	return int(v)
}

// count reads a length prefix, of bytes or of strings (each at least its
// one-byte length), and refuses one the bytes left cannot hold.
func (r *reader) count() int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)) {
		r.err = errMalformed
		return 0
	}
	return int(n)
}

func (r *reader) string() string {
	n := r.count()
	if r.err != nil || n == 0 {
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *reader) strings() []string {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.string()
	}
	return ss
}

func (r *reader) flag() bool {
	if r.err != nil {
		return false
	}
	if len(r.b) == 0 || r.b[0] > 1 {
		r.err = errMalformed
		return false
	}
	v := r.b[0] == 1
	r.b = r.b[1:]
	return v
}

func (r *reader) trace() telemetry.TraceContext {
	return telemetry.TraceContext{Trace: r.uvarint(), Span: r.uvarint(), Proc: r.string()}
}

func (r *reader) adjustment() Adjustment {
	return Adjustment{
		Seq:    r.varint(),
		Kind:   Kind(r.int()),
		Add:    r.strings(),
		Remove: r.strings(),
		Trace:  r.trace(),
	}
}

// done is the decoder's verdict: its first failure, or trailing bytes.
func (r *reader) done() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = errMalformed
	}
	return r.err
}

// An adjust.request has an adjustment's layout, with after in seq's place.
func appendAdjustRequest(b []byte, m *AdjustRequestMsg) []byte {
	return appendAdjustment(b, &Adjustment{Seq: m.After, Kind: m.Kind, Add: m.Add, Remove: m.Remove, Trace: m.Trace})
}

func decodeAdjustRequest(b []byte) (AdjustRequestMsg, error) {
	r := reader{b: b}
	a := r.adjustment()
	return AdjustRequestMsg{After: a.Seq, Kind: a.Kind, Add: a.Add, Remove: a.Remove, Trace: a.Trace}, r.done()
}

func decodeString(b []byte) (string, error) {
	r := reader{b: b}
	s := r.string()
	return s, r.done()
}

func decodeVarint(b []byte) (int64, error) {
	r := reader{b: b}
	v := r.varint()
	return v, r.done()
}

// decodeCoordReply decodes worker.coord's reply: empty for no adjustment.
func decodeCoordReply(b []byte) (Adjustment, bool, error) {
	if len(b) == 0 {
		return Adjustment{}, false, nil
	}
	r := reader{b: b}
	a := r.adjustment()
	return a, true, r.done()
}

func appendStateReply(b []byte, m *StateReplyMsg) []byte {
	b = binary.AppendVarint(b, int64(m.State))
	b = binary.AppendVarint(b, m.Seq)
	return appendStrings(b, m.Pending)
}

func decodeStateReply(b []byte) (StateReplyMsg, error) {
	r := reader{b: b}
	m := StateReplyMsg{State: State(r.int()), Seq: r.varint(), Pending: r.strings()}
	return m, r.done()
}

func appendPersisted(b []byte, p *persisted) []byte {
	b = appendFlag(b, p.Pending != nil)
	if p.Pending != nil {
		b = appendAdjustment(b, &p.Pending.Adjustment)
		for _, v := range p.Pending.Reported {
			b = appendFlag(b, v)
		}
	}
	b = appendFlag(b, p.Last != nil)
	if p.Last != nil {
		b = appendAdjustment(b, p.Last)
	}
	return b
}

func decodePersisted(b []byte) (persisted, error) {
	r := reader{b: b}
	var p persisted
	if r.flag() {
		ps := &pendingState{Adjustment: r.adjustment()}
		ps.Reported = make([]bool, len(ps.Add))
		for i := range ps.Reported {
			ps.Reported[i] = r.flag()
		}
		p.Pending = ps
	}
	if r.flag() {
		last := r.adjustment()
		p.Last = &last
	}
	if p.Last != nil && (p.Last.Seq < 1 || checkRequest(p.Last.Kind, p.Last.Add, p.Last.Remove) != nil) ||
		p.Pending != nil && (p.Pending.Seq != p.seq()+1 || checkRequest(p.Pending.Kind, p.Pending.Add, p.Pending.Remove) != nil) {
		r.err = errMalformed
	}
	return p, r.done()
}
