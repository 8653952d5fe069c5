package topology

import (
	"strings"
	"testing"
	"time"
)

func TestParseGeometry(t *testing.T) {
	data := []byte(`{
		"nodes": 4, "socketsPerNode": 2, "switchesPerSocket": 1,
		"gpusPerSwitch": 4, "gpuMemoryGB": 16,
		"links": {
			"p2p": {"latencyMicros": 5, "peakGBps": 20},
			"net": {"latencyMicros": 40, "peakGBps": 10}
		}
	}`)
	g, err := ParseGeometry(data)
	if err != nil {
		t.Fatalf("ParseGeometry: %v", err)
	}
	if g.Nodes != 4 || g.SocketsPerNode != 2 || g.SwitchesPerSock != 1 || g.GPUsPerSwitch != 4 {
		t.Fatalf("dims = %+v", g)
	}
	if g.GPUMemoryBytes != 16<<30 {
		t.Fatalf("memory = %d", g.GPUMemoryBytes)
	}
	// Overridden links applied; SHM stays default.
	if g.LinkSpecs[P2P].PeakBytesPerSec != 20e9 || g.LinkSpecs[P2P].Latency != 5*time.Microsecond {
		t.Fatalf("p2p spec = %+v", g.LinkSpecs[P2P])
	}
	if g.LinkSpecs[SHM] != DefaultLinkSpecs()[SHM] {
		t.Fatalf("shm not defaulted: %+v", g.LinkSpecs[SHM])
	}
	// The parsed geometry builds a working cluster.
	c, err := NewCluster(g)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	if c.NumGPUs() != 32 {
		t.Fatalf("NumGPUs = %d", c.NumGPUs())
	}
}

func TestParseGeometryErrors(t *testing.T) {
	cases := []string{
		`{not json`,
		`{"nodes": 0, "socketsPerNode": 1, "switchesPerSocket": 1, "gpusPerSwitch": 1}`,
		`{"nodes": 1, "socketsPerNode": 1, "switchesPerSocket": 1, "gpusPerSwitch": 1,
		  "links": {"warp": {"latencyMicros": 1, "peakGBps": 1}}}`,
		`{"nodes": 1, "socketsPerNode": 1, "switchesPerSocket": 1, "gpusPerSwitch": 1,
		  "links": {"p2p": {"latencyMicros": 1, "peakGBps": 0}}}`,
		// More GPUs than a config may describe, and a product that
		// overflows int.
		`{"nodes": 65537, "socketsPerNode": 1, "switchesPerSocket": 1, "gpusPerSwitch": 1}`,
		`{"nodes": 4294967296, "socketsPerNode": 4294967296, "switchesPerSocket": 4294967296, "gpusPerSwitch": 4294967296}`,
	}
	for i, c := range cases {
		if _, err := ParseGeometry([]byte(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := ParseGeometry([]byte(`{"nodes": 256, "socketsPerNode": 2, "switchesPerSocket": 2, "gpusPerSwitch": 64}`)); err != nil {
		t.Errorf("a geometry of exactly %d GPUs refused: %v", maxConfigGPUs, err)
	}
}

func TestGeometryRoundTrip(t *testing.T) {
	g := DefaultGeometry()
	data, err := EncodeGeometry(g)
	if err != nil {
		t.Fatalf("EncodeGeometry: %v", err)
	}
	if !strings.Contains(string(data), "\"p2p\"") {
		t.Fatalf("encoded geometry missing links:\n%s", data)
	}
	back, err := ParseGeometry(data)
	if err != nil {
		t.Fatalf("ParseGeometry: %v", err)
	}
	if back.Nodes != g.Nodes || back.GPUsPerSwitch != g.GPUsPerSwitch {
		t.Fatalf("round trip dims differ: %+v vs %+v", back, g)
	}
	for _, tr := range []Transport{P2P, SHM, NET} {
		if back.LinkSpecs[tr] != g.LinkSpecs[tr] {
			t.Fatalf("link %v differs: %+v vs %+v", tr, back.LinkSpecs[tr], g.LinkSpecs[tr])
		}
	}
	if back.GPUMemoryBytes != g.GPUMemoryBytes {
		t.Fatalf("memory differs: %d vs %d", back.GPUMemoryBytes, g.GPUMemoryBytes)
	}
}

func FuzzParseGeometry(f *testing.F) {
	seed, err := EncodeGeometry(DefaultGeometry())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(seed))
	f.Add(`{"nodes":1,"socketsPerNode":1,"switchesPerSocket":1,"gpusPerSwitch":1}`)
	f.Add(`{`)
	f.Fuzz(func(t *testing.T, data string) {
		g, err := ParseGeometry([]byte(data))
		if err != nil {
			return // malformed input must only error, never panic
		}
		// Any accepted geometry must build a valid cluster.
		c, err := NewCluster(g)
		if err != nil {
			t.Fatalf("accepted geometry does not build: %v (%+v)", err, g)
		}
		if c.NumGPUs() <= 0 {
			t.Fatalf("cluster with %d GPUs", c.NumGPUs())
		}
	})
}
