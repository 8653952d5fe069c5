package topology

import (
	"encoding/json"
	"fmt"
	"time"
)

// GeometryConfig is the human-editable JSON form of a cluster geometry, so
// deployments can describe their hardware in a config file instead of code:
//
//	{
//	  "nodes": 8, "socketsPerNode": 2, "switchesPerSocket": 2,
//	  "gpusPerSwitch": 2, "gpuMemoryGB": 11,
//	  "links": {
//	    "p2p": {"latencyMicros": 10, "peakGBps": 12},
//	    "shm": {"latencyMicros": 25, "peakGBps": 7},
//	    "net": {"latencyMicros": 50, "peakGBps": 4.5}
//	  }
//	}
type GeometryConfig struct {
	Nodes             int                       `json:"nodes"`
	SocketsPerNode    int                       `json:"socketsPerNode"`
	SwitchesPerSocket int                       `json:"switchesPerSocket"`
	GPUsPerSwitch     int                       `json:"gpusPerSwitch"`
	GPUMemoryGB       float64                   `json:"gpuMemoryGB"`
	Links             map[string]LinkSpecConfig `json:"links"`
}

// LinkSpecConfig is a link calibration in config units.
type LinkSpecConfig struct {
	LatencyMicros float64 `json:"latencyMicros"`
	PeakGBps      float64 `json:"peakGBps"`
}

var transportNames = map[string]Transport{
	"p2p": P2P,
	"shm": SHM,
	"net": NET,
}

// maxConfigGPUs bounds the cluster a config file may describe. NewCluster
// builds every GPU of a geometry, so without a bound a few digits in a
// config would ask for billions of them.
const maxConfigGPUs = 1 << 16

// ParseGeometry decodes a JSON geometry description. Missing links fall
// back to the defaults; other fields are required, and the cluster may
// hold at most maxConfigGPUs GPUs.
func ParseGeometry(data []byte) (Geometry, error) {
	var cfg GeometryConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return Geometry{}, fmt.Errorf("topology: parse geometry: %w", err)
	}
	gpus := 1
	for _, d := range []int{cfg.Nodes, cfg.SocketsPerNode, cfg.SwitchesPerSocket, cfg.GPUsPerSwitch} {
		if d <= 0 {
			return Geometry{}, fmt.Errorf("topology: non-positive dimensions in config %+v", cfg)
		}
		if d > maxConfigGPUs/gpus {
			return Geometry{}, fmt.Errorf("topology: config describes more than %d GPUs", maxConfigGPUs)
		}
		gpus *= d
	}
	g := Geometry{
		Nodes:           cfg.Nodes,
		SocketsPerNode:  cfg.SocketsPerNode,
		SwitchesPerSock: cfg.SwitchesPerSocket,
		GPUsPerSwitch:   cfg.GPUsPerSwitch,
		LinkSpecs:       DefaultLinkSpecs(),
	}
	if cfg.GPUMemoryGB > 0 {
		g.GPUMemoryBytes = int64(cfg.GPUMemoryGB * (1 << 30))
	}
	for name, spec := range cfg.Links {
		tr, ok := transportNames[name]
		if !ok {
			return Geometry{}, fmt.Errorf("topology: unknown link %q (want p2p/shm/net)", name)
		}
		if spec.PeakGBps <= 0 || spec.LatencyMicros < 0 {
			return Geometry{}, fmt.Errorf("topology: invalid link spec %q: %+v", name, spec)
		}
		g.LinkSpecs[tr] = LinkSpec{
			Latency:         time.Duration(spec.LatencyMicros * float64(time.Microsecond)),
			PeakBytesPerSec: spec.PeakGBps * 1e9,
		}
	}
	return g, nil
}

// EncodeGeometry renders a geometry as its JSON config form.
func EncodeGeometry(g Geometry) ([]byte, error) {
	cfg := GeometryConfig{
		Nodes:             g.Nodes,
		SocketsPerNode:    g.SocketsPerNode,
		SwitchesPerSocket: g.SwitchesPerSock,
		GPUsPerSwitch:     g.GPUsPerSwitch,
		GPUMemoryGB:       float64(g.GPUMemoryBytes) / (1 << 30),
		Links:             make(map[string]LinkSpecConfig, len(g.LinkSpecs)),
	}
	for name, tr := range transportNames {
		spec, ok := g.LinkSpecs[tr]
		if !ok {
			continue
		}
		cfg.Links[name] = LinkSpecConfig{
			LatencyMicros: float64(spec.Latency) / float64(time.Microsecond),
			PeakGBps:      spec.PeakBytesPerSec / 1e9,
		}
	}
	out, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("topology: encode geometry: %w", err)
	}
	return out, nil
}
