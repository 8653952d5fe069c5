package collective

import "fmt"

// Broadcast distributes root's vector to every rank, in place, using a
// pipelined ring: the payload is split into n chunks that travel around the
// ring, so all links are busy simultaneously and the completion time
// approaches one payload transfer regardless of the group size. The elastic
// runtime does not call it: a scale-out installs each joiner's state with one
// copy out of its nearest source's arena, scheduled by replication.Plan.Run,
// so Broadcast is a library collective with tests but no product caller.
//
// All ranks must call Broadcast collectively with vectors of equal length;
// non-root vectors are overwritten.
func (g *Group) Broadcast(rank, root int, vec []float64) error {
	if rank < 0 || rank >= g.n {
		return fmt.Errorf("collective: rank %d out of [0, %d)", rank, g.n)
	}
	if root < 0 || root >= g.n {
		return fmt.Errorf("collective: root %d out of [0, %d)", root, g.n)
	}
	if g.n == 1 {
		return nil
	}
	// Position of this rank along the ring starting at root: root is 0,
	// root+1 is 1, ..., root-1 is n-1. The last position only receives.
	pos := ((rank-root)%g.n + g.n) % g.n
	last := g.n - 1
	for c := 0; c < g.n; c++ {
		lo, hi := bounds(len(vec), g.n, c)
		if pos == 0 {
			// Root: send each chunk once.
			out := make([]float64, hi-lo)
			copy(out, vec[lo:hi])
			if err := g.send(rank, chunkMsg{idx: c, data: out}); err != nil {
				return err
			}
			continue
		}
		m, err := g.recv(rank)
		if err != nil {
			return err
		}
		mlo, mhi := bounds(len(vec), g.n, m.idx)
		if mhi-mlo != len(m.data) {
			return fmt.Errorf("collective: broadcast chunk %d size mismatch at rank %d", m.idx, rank)
		}
		copy(vec[mlo:mhi], m.data)
		if pos != last {
			if err := g.send(rank, m); err != nil {
				return err
			}
		}
	}
	return nil
}
