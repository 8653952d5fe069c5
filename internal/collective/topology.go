package collective

import (
	"fmt"

	"github.com/elan-sys/elan/internal/topology"
)

// Topology tells a communication group where its ranks live: how many
// there are and what link level connects any two of them. The reduction
// does not depend on it — every group runs the same exchange — but the link
// level its traffic crosses labels the group's telemetry (LinkLabelOf).
//
// Implementations must be immutable after construction. The elastic runtime
// does not use them: it labels its groups with topology.Link over its GPU
// reservation, and LinkLabelOf is the tests' oracle for that label.
type Topology interface {
	// Ranks returns the number of ranks in the group.
	Ranks() int
	// Level classifies the link between two ranks' GPUs.
	Level(a, b int) topology.LinkLevel
}

// Flat is the single-node topology: all ranks share one PCIe switch, so
// every pair is L1.
type Flat int

// Ranks returns the group size.
func (f Flat) Ranks() int { return int(f) }

// Level is L1 for every pair: the flat topology models co-located ranks.
func (f Flat) Level(a, b int) topology.LinkLevel { return topology.L1 }

// Clustered is a Topology backed by a concrete GPU placement on a
// topology.Cluster-shaped hardware tree: rank r runs on place[r]. Link
// levels come from the hardware tree structure (topology.Link).
type Clustered struct {
	place []topology.GPUID
}

// NewClustered builds a Topology from a rank→GPU placement. The placement
// must be non-empty and free of duplicates (two ranks cannot share a GPU).
func NewClustered(place []topology.GPUID) (*Clustered, error) {
	if len(place) == 0 {
		return nil, fmt.Errorf("collective: empty placement")
	}
	seen := make(map[topology.GPUID]bool, len(place))
	for _, id := range place {
		if seen[id] {
			return nil, fmt.Errorf("collective: GPU %v placed twice", id)
		}
		seen[id] = true
	}
	c := &Clustered{place: make([]topology.GPUID, len(place))}
	copy(c.place, place)
	return c, nil
}

// Ranks returns the group size.
func (c *Clustered) Ranks() int { return len(c.place) }

// Level classifies the link between two ranks from the hardware tree.
func (c *Clustered) Level(a, b int) topology.LinkLevel {
	return topology.Link(c.place[a], c.place[b])
}

// LinkLabelOf names the widest link a topology's reduction traffic must
// cross ("L1".."L4") — the label attached to the group's allreduce spans.
func LinkLabelOf(t Topology) string {
	n := t.Ranks()
	worst := topology.L1
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if l := t.Level(a, b); l > worst {
				worst = l
			}
		}
	}
	return worst.String()
}
