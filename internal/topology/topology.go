// Package topology models the hardware of a GPU training cluster: the
// node / socket / PCIe-switch / GPU tree, the four link levels between any
// two GPUs that the paper identifies (Section IV), the three transports
// (P2P, SHM, NET) with their bandwidth curves (Figure 8), and the contention
// domains that force replications sharing a physical link to serialize.
//
// The default geometry mirrors the paper's testbed: servers with two CPU
// sockets, two PCIe switches per socket and two GPUs per switch (8 GPUs per
// node), connected by a 56 Gbps InfiniBand network.
package topology

import (
	"fmt"
	"time"
)

// LinkLevel classifies the path between two GPUs, following Section IV of
// the paper. Lower is closer (higher bandwidth).
type LinkLevel int

const (
	// L1 traverses only PCIe switches (same switch): P2P capable.
	L1 LinkLevel = iota + 1
	// L2 traverses a PCIe host bridge (same socket, different switch).
	L2
	// L3 traverses a socket-level link such as QPI (same node, different
	// socket).
	L3
	// L4 traverses the network (different nodes).
	L4
)

// String returns the paper's name for the level.
func (l LinkLevel) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case L4:
		return "L4"
	default:
		return fmt.Sprintf("LinkLevel(%d)", int(l))
	}
}

// Transport is the communication mechanism available on a link level.
type Transport int

const (
	// P2P is GPU peer-to-peer memory access, available only on L1.
	P2P Transport = iota + 1
	// SHM bridges through CPU shared memory, used on L2 and L3.
	SHM
	// NET crosses the network (InfiniBand with RDMA), the only way on L4.
	NET
)

// String names the transport as in Figure 8.
func (t Transport) String() string {
	switch t {
	case P2P:
		return "P2P"
	case SHM:
		return "SHM"
	case NET:
		return "NET"
	default:
		return fmt.Sprintf("Transport(%d)", int(t))
	}
}

// TransportFor returns the best transport usable on a link level, following
// the paper: P2P only on L1; SHM on L2 and L3; NET on L4.
func TransportFor(level LinkLevel) Transport {
	switch level {
	case L1:
		return P2P
	case L2, L3:
		return SHM
	default:
		return NET
	}
}

// LinkSpec holds the alpha-beta cost parameters of a transport: a fixed
// per-transfer latency and a peak bandwidth. Effective bandwidth grows with
// message size and saturates at Peak, reproducing the shape of Figure 8.
type LinkSpec struct {
	Latency time.Duration
	// PeakBytesPerSec is the asymptotic bandwidth for large messages.
	PeakBytesPerSec float64
}

// DefaultLinkSpecs returns calibration for a PCIe-gen3 + 56 Gbps IB cluster
// of the paper's era. The ordering P2P > SHM > NET matches Figure 8.
func DefaultLinkSpecs() map[Transport]LinkSpec {
	return map[Transport]LinkSpec{
		P2P: {Latency: 10 * time.Microsecond, PeakBytesPerSec: 12e9},
		SHM: {Latency: 25 * time.Microsecond, PeakBytesPerSec: 7e9},
		NET: {Latency: 50 * time.Microsecond, PeakBytesPerSec: 4.5e9},
	}
}

// GPUID uniquely identifies a GPU in a cluster.
type GPUID struct {
	Node   int
	Socket int
	Switch int
	Index  int
}

// String renders the ID as "nN.sS.pP.gG".
func (id GPUID) String() string {
	return fmt.Sprintf("n%d.s%d.p%d.g%d", id.Node, id.Socket, id.Switch, id.Index)
}

// less provides a total order for deterministic tie-breaking.
func (id GPUID) less(other GPUID) bool {
	if id.Node != other.Node {
		return id.Node < other.Node
	}
	if id.Socket != other.Socket {
		return id.Socket < other.Socket
	}
	if id.Switch != other.Switch {
		return id.Switch < other.Switch
	}
	return id.Index < other.Index
}

// GPU is a single accelerator in the cluster tree.
type GPU struct {
	ID GPUID
	// MemoryBytes is the device memory capacity (11 GB for a 1080Ti).
	MemoryBytes int64
	// reserved marks the GPU as allocated to a job.
	reserved bool
}

// Geometry describes the regular shape of a cluster.
type Geometry struct {
	Nodes            int
	SocketsPerNode   int
	SwitchesPerSock  int
	GPUsPerSwitch    int
	GPUMemoryBytes   int64
	LinkSpecs        map[Transport]LinkSpec
	NetworkBisection float64 // aggregate network bytes/sec; 0 = unlimited
}

// DefaultGeometry matches the paper's testbed: 8 nodes x 2 sockets x
// 2 switches x 2 GPUs = 64 GPUs, 11 GB per GPU.
func DefaultGeometry() Geometry {
	return Geometry{
		Nodes:           8,
		SocketsPerNode:  2,
		SwitchesPerSock: 2,
		GPUsPerSwitch:   2,
		GPUMemoryBytes:  11 << 30,
		LinkSpecs:       DefaultLinkSpecs(),
	}
}

// Cluster is the hardware tree plus allocation state.
type Cluster struct {
	geom Geometry
	gpus []*GPU
	byID map[GPUID]*GPU
}

// NewCluster materializes a cluster from a geometry. It validates that all
// dimensions are positive and that link specs are present.
func NewCluster(geom Geometry) (*Cluster, error) {
	if geom.Nodes <= 0 || geom.SocketsPerNode <= 0 || geom.SwitchesPerSock <= 0 || geom.GPUsPerSwitch <= 0 {
		return nil, fmt.Errorf("topology: non-positive geometry %+v", geom)
	}
	if geom.LinkSpecs == nil {
		geom.LinkSpecs = DefaultLinkSpecs()
	}
	for _, tr := range []Transport{P2P, SHM, NET} {
		if _, ok := geom.LinkSpecs[tr]; !ok {
			return nil, fmt.Errorf("topology: missing link spec for %v", tr)
		}
	}
	if geom.GPUMemoryBytes <= 0 {
		geom.GPUMemoryBytes = 11 << 30
	}
	c := &Cluster{geom: geom, byID: make(map[GPUID]*GPU)}
	for n := 0; n < geom.Nodes; n++ {
		for s := 0; s < geom.SocketsPerNode; s++ {
			for p := 0; p < geom.SwitchesPerSock; p++ {
				for g := 0; g < geom.GPUsPerSwitch; g++ {
					gpu := &GPU{
						ID:          GPUID{Node: n, Socket: s, Switch: p, Index: g},
						MemoryBytes: geom.GPUMemoryBytes,
					}
					c.gpus = append(c.gpus, gpu)
					c.byID[gpu.ID] = gpu
				}
			}
		}
	}
	return c, nil
}

// Geometry returns the cluster's geometry.
func (c *Cluster) Geometry() Geometry { return c.geom }

// NumGPUs returns the total GPU count.
func (c *Cluster) NumGPUs() int { return len(c.gpus) }

// GPUsPerNode returns the per-node GPU count.
func (c *Cluster) GPUsPerNode() int {
	return c.geom.SocketsPerNode * c.geom.SwitchesPerSock * c.geom.GPUsPerSwitch
}

// GPU looks up a GPU by ID.
func (c *Cluster) GPU(id GPUID) (*GPU, bool) {
	g, ok := c.byID[id]
	return g, ok
}

// AllGPUs returns all GPUs in deterministic tree order. The slice is a copy;
// the GPUs themselves are shared.
func (c *Cluster) AllGPUs() []*GPU {
	out := make([]*GPU, len(c.gpus))
	copy(out, c.gpus)
	return out
}

// FreeGPUs returns unreserved GPUs in tree order.
func (c *Cluster) FreeGPUs() []*GPU {
	var out []*GPU
	for _, g := range c.gpus {
		if !g.reserved {
			out = append(out, g)
		}
	}
	return out
}

// NumFree reports the number of unreserved GPUs.
func (c *Cluster) NumFree() int {
	n := 0
	for _, g := range c.gpus {
		if !g.reserved {
			n++
		}
	}
	return n
}

// Reserve marks n free GPUs as allocated and returns them. GPUs are chosen in
// tree order, which packs allocations by locality (same switch, then socket,
// then node) — the placement a locality-aware scheduler would produce.
func (c *Cluster) Reserve(n int) ([]*GPU, error) {
	free := c.FreeGPUs()
	if len(free) < n {
		return nil, fmt.Errorf("topology: reserve %d GPUs, only %d free", n, len(free))
	}
	out := free[:n]
	for _, g := range out {
		g.reserved = true
	}
	return out, nil
}

// ReserveSpecific marks the given GPUs as allocated, failing if any is
// already reserved.
func (c *Cluster) ReserveSpecific(ids []GPUID) ([]*GPU, error) {
	out := make([]*GPU, 0, len(ids))
	for _, id := range ids {
		g, ok := c.byID[id]
		if !ok {
			return nil, fmt.Errorf("topology: unknown GPU %v", id)
		}
		if g.reserved {
			return nil, fmt.Errorf("topology: GPU %v already reserved", id)
		}
		out = append(out, g)
	}
	for _, g := range out {
		g.reserved = true
	}
	return out, nil
}

// Release frees previously reserved GPUs. Releasing an unreserved GPU is a
// no-op so that teardown paths are idempotent.
func (c *Cluster) Release(gpus []*GPU) {
	for _, g := range gpus {
		g.reserved = false
	}
}

// Link classifies the path between two GPUs. Identical GPUs are L1 (an
// intra-device copy is at least as fast as P2P).
func Link(a, b GPUID) LinkLevel {
	switch {
	case a.Node != b.Node:
		return L4
	case a.Socket != b.Socket:
		return L3
	case a.Switch != b.Switch:
		return L2
	default:
		return L1
	}
}

// TransferTime returns the simulated time to move size bytes between two
// GPUs over the best transport for their link level.
func (c *Cluster) TransferTime(a, b GPUID, size int64) time.Duration {
	return c.TransportTime(TransportFor(Link(a, b)), size)
}

// TransportTime returns the alpha-beta cost of moving size bytes over a
// transport: latency + size/peak.
func (c *Cluster) TransportTime(tr Transport, size int64) time.Duration {
	spec := c.geom.LinkSpecs[tr]
	if size < 0 {
		size = 0
	}
	sec := float64(size) / spec.PeakBytesPerSec
	return spec.Latency + time.Duration(sec*float64(time.Second))
}

// EffectiveBandwidth returns the achieved bytes/sec for a transfer of size
// bytes over the given transport, i.e. size divided by TransportTime. This
// reproduces the saturating bandwidth-vs-size curves of Figure 8.
func (c *Cluster) EffectiveBandwidth(tr Transport, size int64) float64 {
	if size <= 0 {
		return 0
	}
	t := c.TransportTime(tr, size)
	return float64(size) / t.Seconds()
}

// ContentionKey identifies the physical resource a transfer between a and b
// occupies exclusively. Transfers with equal non-empty keys must serialize
// (Section IV: replications traversing L3 contend; network transfers contend
// on the endpoints' NICs). L1 and L2 paths are independent per switch pair
// and effectively contention-free for our purposes, so their key is "".
func ContentionKey(a, b GPUID) string {
	switch Link(a, b) {
	case L3:
		// The socket-level (QPI) link of the shared node.
		return fmt.Sprintf("qpi:n%d", a.Node)
	case L4:
		// Both NICs are occupied; key on the lower node so that any pair of
		// transfers touching the same node serializes. We conservatively key
		// on both endpoints joined in sorted order.
		lo, hi := a.Node, b.Node
		if lo > hi {
			lo, hi = hi, lo
		}
		return fmt.Sprintf("nic:n%d+n%d", lo, hi)
	default:
		return ""
	}
}

// Nearest selects the closest GPU to target among candidates: the one with
// the lowest link level, tie-broken by GPUID order for determinism. It
// returns false if candidates is empty.
func Nearest(target GPUID, candidates []GPUID) (GPUID, bool) {
	if len(candidates) == 0 {
		return GPUID{}, false
	}
	best := candidates[0]
	bestLevel := Link(target, candidates[0])
	for _, c := range candidates[1:] {
		level := Link(target, c)
		if level < bestLevel || (level == bestLevel && c.less(best)) {
			best = c
			bestLevel = level
		}
	}
	return best, true
}

// IDsOf extracts the IDs of a GPU slice.
func IDsOf(gpus []*GPU) []GPUID {
	out := make([]GPUID, len(gpus))
	for i, g := range gpus {
		out[i] = g.ID
	}
	return out
}
