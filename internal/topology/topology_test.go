package topology

import (
	"testing"
	"testing/quick"
	"time"
)

func mustCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := NewCluster(DefaultGeometry())
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

func TestDefaultGeometrySize(t *testing.T) {
	c := mustCluster(t)
	if got := c.NumGPUs(); got != 64 {
		t.Fatalf("NumGPUs = %d, want 64", got)
	}
	if got := c.GPUsPerNode(); got != 8 {
		t.Fatalf("GPUsPerNode = %d, want 8", got)
	}
}

func TestNewClusterValidation(t *testing.T) {
	bad := DefaultGeometry()
	bad.Nodes = 0
	if _, err := NewCluster(bad); err == nil {
		t.Fatal("zero-node cluster accepted")
	}
	missing := DefaultGeometry()
	missing.LinkSpecs = map[Transport]LinkSpec{P2P: {Latency: time.Microsecond, PeakBytesPerSec: 1e9}}
	if _, err := NewCluster(missing); err == nil {
		t.Fatal("missing link specs accepted")
	}
}

func TestLinkLevels(t *testing.T) {
	cases := []struct {
		a, b GPUID
		want LinkLevel
	}{
		{GPUID{0, 0, 0, 0}, GPUID{0, 0, 0, 1}, L1},
		{GPUID{0, 0, 0, 0}, GPUID{0, 0, 0, 0}, L1},
		{GPUID{0, 0, 0, 0}, GPUID{0, 0, 1, 0}, L2},
		{GPUID{0, 0, 0, 0}, GPUID{0, 1, 0, 0}, L3},
		{GPUID{0, 0, 0, 0}, GPUID{1, 0, 0, 0}, L4},
	}
	for _, c := range cases {
		if got := Link(c.a, c.b); got != c.want {
			t.Errorf("Link(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		// Symmetry.
		if got := Link(c.b, c.a); got != c.want {
			t.Errorf("Link(%v, %v) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestLinkSymmetryProperty(t *testing.T) {
	prop := func(an, as, ap, ag, bn, bs, bp, bg uint8) bool {
		a := GPUID{int(an % 8), int(as % 2), int(ap % 2), int(ag % 2)}
		b := GPUID{int(bn % 8), int(bs % 2), int(bp % 2), int(bg % 2)}
		return Link(a, b) == Link(b, a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransportFor(t *testing.T) {
	cases := map[LinkLevel]Transport{L1: P2P, L2: SHM, L3: SHM, L4: NET}
	for level, want := range cases {
		if got := TransportFor(level); got != want {
			t.Errorf("TransportFor(%v) = %v, want %v", level, got, want)
		}
	}
}

func TestBandwidthOrdering(t *testing.T) {
	c := mustCluster(t)
	// For any message size, P2P >= SHM >= NET effective bandwidth (Fig 8).
	for _, size := range []int64{4 << 10, 1 << 20, 64 << 20, 1 << 30} {
		p2p := c.EffectiveBandwidth(P2P, size)
		shm := c.EffectiveBandwidth(SHM, size)
		net := c.EffectiveBandwidth(NET, size)
		if !(p2p > shm && shm > net) {
			t.Errorf("size %d: bandwidth ordering violated: P2P=%.3g SHM=%.3g NET=%.3g", size, p2p, shm, net)
		}
	}
}

func TestBandwidthSaturates(t *testing.T) {
	c := mustCluster(t)
	// Effective bandwidth must increase with message size and approach peak.
	prev := 0.0
	for _, size := range []int64{4 << 10, 256 << 10, 16 << 20, 1 << 30} {
		bw := c.EffectiveBandwidth(P2P, size)
		if bw <= prev {
			t.Fatalf("bandwidth not increasing at size %d: %v <= %v", size, bw, prev)
		}
		prev = bw
	}
	peak := DefaultLinkSpecs()[P2P].PeakBytesPerSec
	if prev > peak {
		t.Fatalf("effective bandwidth %v exceeds peak %v", prev, peak)
	}
	if prev < 0.9*peak {
		t.Fatalf("1GB transfer achieves only %.2f%% of peak", 100*prev/peak)
	}
}

func TestTransferTime(t *testing.T) {
	c := mustCluster(t)
	a := GPUID{0, 0, 0, 0}
	b := GPUID{0, 0, 0, 1} // L1 -> P2P
	d := c.TransferTime(a, b, 12e9)
	// 12 GB over 12 GB/s P2P = ~1s plus tiny latency.
	if d < time.Second || d > time.Second+time.Millisecond {
		t.Fatalf("TransferTime = %v, want ~1s", d)
	}
	if got := c.TransferTime(a, b, -5); got != DefaultLinkSpecs()[P2P].Latency {
		t.Fatalf("negative size transfer = %v, want pure latency", got)
	}
}

func TestContentionKey(t *testing.T) {
	sameSwitch := ContentionKey(GPUID{0, 0, 0, 0}, GPUID{0, 0, 0, 1})
	if sameSwitch != "" {
		t.Errorf("L1 contention key = %q, want empty", sameSwitch)
	}
	qpi := ContentionKey(GPUID{2, 0, 0, 0}, GPUID{2, 1, 0, 0})
	if qpi != "qpi:n2" {
		t.Errorf("L3 contention key = %q", qpi)
	}
	net1 := ContentionKey(GPUID{0, 0, 0, 0}, GPUID{3, 0, 0, 0})
	net2 := ContentionKey(GPUID{3, 1, 1, 1}, GPUID{0, 1, 0, 0})
	if net1 == "" || net1 != net2 {
		t.Errorf("L4 contention keys differ for same node pair: %q vs %q", net1, net2)
	}
}

func TestNearest(t *testing.T) {
	target := GPUID{0, 1, 0, 0}
	candidates := []GPUID{
		{1, 0, 0, 0}, // L4
		{0, 0, 0, 0}, // L3
		{0, 1, 1, 0}, // L2
	}
	got, ok := Nearest(target, candidates)
	if !ok || got != (GPUID{0, 1, 1, 0}) {
		t.Fatalf("Nearest = %v, %v; want n0.s1.p1.g0", got, ok)
	}
	if _, ok := Nearest(target, nil); ok {
		t.Fatal("Nearest on empty candidates returned ok")
	}
}

func TestNearestTieBreakDeterministic(t *testing.T) {
	target := GPUID{0, 0, 0, 0}
	// Both candidates are L4; the smaller ID must win regardless of order.
	a := GPUID{5, 0, 0, 0}
	b := GPUID{3, 0, 0, 0}
	got1, _ := Nearest(target, []GPUID{a, b})
	got2, _ := Nearest(target, []GPUID{b, a})
	if got1 != b || got2 != b {
		t.Fatalf("tie-break non-deterministic: %v vs %v", got1, got2)
	}
}

func TestNearestPrefersLowerLevel(t *testing.T) {
	// Property: the selected candidate's level is minimal.
	prop := func(tn, ts uint8, raw []uint8) bool {
		target := GPUID{int(tn % 4), int(ts % 2), 0, 0}
		if len(raw) == 0 {
			return true
		}
		candidates := make([]GPUID, 0, len(raw))
		for i := 0; i+3 < len(raw); i += 4 {
			candidates = append(candidates, GPUID{
				int(raw[i] % 4), int(raw[i+1] % 2), int(raw[i+2] % 2), int(raw[i+3] % 2),
			})
		}
		if len(candidates) == 0 {
			return true
		}
		best, ok := Nearest(target, candidates)
		if !ok {
			return false
		}
		for _, c := range candidates {
			if Link(target, c) < Link(target, best) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReserveRelease(t *testing.T) {
	c := mustCluster(t)
	gpus, err := c.Reserve(10)
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if len(gpus) != 10 {
		t.Fatalf("reserved %d", len(gpus))
	}
	if c.NumFree() != 54 {
		t.Fatalf("NumFree = %d, want 54", c.NumFree())
	}
	// Locality: the first 8 reserved GPUs must be on node 0.
	for i := 0; i < 8; i++ {
		if gpus[i].ID.Node != 0 {
			t.Fatalf("gpu %d on node %d, want 0", i, gpus[i].ID.Node)
		}
	}
	c.Release(gpus)
	if c.NumFree() != 64 {
		t.Fatalf("after release NumFree = %d", c.NumFree())
	}
	// Idempotent release.
	c.Release(gpus)
	if c.NumFree() != 64 {
		t.Fatalf("double release NumFree = %d", c.NumFree())
	}
}

func TestReserveExhaustion(t *testing.T) {
	c := mustCluster(t)
	if _, err := c.Reserve(65); err == nil {
		t.Fatal("over-reserve succeeded")
	}
	if c.NumFree() != 64 {
		t.Fatalf("failed reserve leaked: NumFree = %d", c.NumFree())
	}
}

func TestReserveSpecific(t *testing.T) {
	c := mustCluster(t)
	ids := []GPUID{{0, 0, 0, 0}, {1, 1, 1, 1}}
	gpus, err := c.ReserveSpecific(ids)
	if err != nil {
		t.Fatalf("ReserveSpecific: %v", err)
	}
	if len(gpus) != 2 {
		t.Fatalf("got %d GPUs", len(gpus))
	}
	if _, err := c.ReserveSpecific(ids[:1]); err == nil {
		t.Fatal("double ReserveSpecific succeeded")
	}
	if _, err := c.ReserveSpecific([]GPUID{{9, 9, 9, 9}}); err == nil {
		t.Fatal("unknown GPU reserved")
	}
	// Atomicity: a failed batch must not reserve anything.
	free := c.NumFree()
	if _, err := c.ReserveSpecific([]GPUID{{2, 0, 0, 0}, {0, 0, 0, 0}}); err == nil {
		t.Fatal("partially-conflicting batch succeeded")
	}
	if c.NumFree() != free {
		t.Fatalf("failed batch leaked reservations: %d -> %d", free, c.NumFree())
	}
}

func TestGPUIDString(t *testing.T) {
	id := GPUID{1, 0, 1, 0}
	if got := id.String(); got != "n1.s0.p1.g0" {
		t.Fatalf("String = %q", got)
	}
}

func TestPaperExampleFigure9(t *testing.T) {
	// Figure 9: A,B on the same PCIe switch; C on the other socket of the
	// same node; D on a different node. New workers E (same socket as C) and
	// F (same node as D). Nearest existing neighbor of E must be C (SHM) and
	// of F must be D.
	a := GPUID{0, 0, 0, 0}
	b := GPUID{0, 0, 0, 1}
	cID := GPUID{0, 1, 0, 0}
	d := GPUID{1, 0, 0, 0}
	e := GPUID{0, 1, 0, 1} // same switch as C -> L1 actually; paper says "under the same socket"
	f := GPUID{1, 0, 1, 0} // same node as D
	existing := []GPUID{a, b, cID, d}
	srcE, _ := Nearest(e, existing)
	srcF, _ := Nearest(f, existing)
	if srcE != cID {
		t.Fatalf("nearest(E) = %v, want C", srcE)
	}
	if srcF != d {
		t.Fatalf("nearest(F) = %v, want D", srcF)
	}
	// The two replications use disjoint contention domains and may run
	// concurrently.
	k1 := ContentionKey(srcE, e)
	k2 := ContentionKey(srcF, f)
	if k1 != "" && k1 == k2 {
		t.Fatalf("paper-example replications contend: %q", k1)
	}
}
