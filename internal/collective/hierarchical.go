package collective

import "fmt"

// hierAllReduce is the two-tier topology-matched allreduce, run when the
// group's placement spans more than one node. Only node leaders touch the
// cross-node links, so the slowest link carries 2(m-1)/m of the payload
// once instead of bounding every one of the flat ring's 2(n-1) steps —
// the topology-matched reduction structure behind FireCaffe-style
// near-linear scaling.
//
// Stages (g = ranks on this node, m = nodes):
//
//	P1  intra-node ring reduce-scatter over the node's g members
//	    (L1/L2 links): member at position i ends owning node-partial
//	    chunk (i+1) mod g.
//	P2a each non-leader member hands its owned chunk to the node leader,
//	    which overwrites its copy: the leader now holds the full node
//	    partial vector.
//	P2b leader ring allreduce across the m leaders (L4 links): reduce-
//	    scatter plus allgather over m chunks; every leader ends with the
//	    global sum.
//	P2c the leader hands each member back its owned chunk, now globally
//	    reduced — exactly balancing the buffers absorbed in P2a.
//	P3  intra-node ring allgather redistributes the full vector to every
//	    member (the P2c chunk restores the allgather ownership invariant).
//
// Single-member nodes skip P1/P2a/P2c/P3 and participate only in the
// leader ring. The accumulation order — per-node rotated k-ascending fold,
// then a rotated k-ascending fold of the node partials — is specified
// executably by ReferenceAllReduce, and degenerates to the flat ring's
// order when m == 1 (which is why that case is dispatched to the flat
// engine at construction).
//
// All chunk buffers come from the caller rank's scratch arena under the
// ownership-transfer protocol of rankScratch; every stage's withdrawals
// are balanced by deposits, so the hierarchical path is allocation-free at
// steady state.
//
//elan:hotpath
func (g *Group) hierAllReduce(rank int, vec []float64) error {
	lay := g.lay
	j := lay.nodeOf[rank]
	members := lay.nodes[j]
	gn := len(members)
	pos := lay.memIdx[rank]
	leader := members[0]

	sc := &g.scratch[rank]

	if gn > 1 {
		// P1: intra-node reduce-scatter.
		if err := g.ringReduceScatter(members, pos, vec); err != nil {
			return err
		}
		owned := (pos + 1) % gn
		lo, hi := bounds(len(vec), gn, owned)
		if pos != 0 {
			// P2a (member side): transfer the owned node-partial chunk
			// to the leader. The buffer stays with the leader until P2c
			// pays one back.
			out := sc.get(hi - lo)
			copy(out, vec[lo:hi])
			if err := g.sendTo(rank, leader, chunkMsg{idx: owned, data: out}); err != nil {
				return err
			}
		} else {
			// P2a (leader side): collect every member's owned chunk in
			// ascending member order; each deposit grows the pool that
			// P2c drains.
			for i := 1; i < gn; i++ {
				msg, err := g.recvFrom(members[i], rank)
				if err != nil {
					return err
				}
				mlo, mhi := bounds(len(vec), gn, msg.idx)
				if mhi-mlo != len(msg.data) {
					return fmt.Errorf("collective: leader %d got node chunk %d of %d values, want %d", //elan:vet-allow hotpathalloc — cold error path, never taken in the zero-alloc steady state
						rank, msg.idx, len(msg.data), mhi-mlo)
				}
				copy(vec[mlo:mhi], msg.data)
				sc.put(msg.data)
			}
		}
	}

	// P2b: leader ring allreduce of the node partials.
	if pos == 0 {
		if err := g.ringReduceScatter(lay.leaders, j, vec); err != nil {
			return err
		}
		if err := g.ringAllGather(lay.leaders, j, vec); err != nil {
			return err
		}
	}

	if gn > 1 {
		if pos == 0 {
			// P2c (leader side): hand each member its owned chunk of the
			// global sum.
			for i := 1; i < gn; i++ {
				ci := (i + 1) % gn
				clo, chi := bounds(len(vec), gn, ci)
				out := sc.get(chi - clo)
				copy(out, vec[clo:chi])
				if err := g.sendTo(rank, members[i], chunkMsg{idx: ci, data: out}); err != nil {
					return err
				}
			}
		} else {
			// P2c (member side): receive the globally reduced owned chunk.
			owned := (pos + 1) % gn
			lo, hi := bounds(len(vec), gn, owned)
			msg, err := g.recvFrom(leader, rank)
			if err != nil {
				return err
			}
			if msg.idx != owned || hi-lo != len(msg.data) {
				return fmt.Errorf("collective: rank %d got global chunk %d of %d values, want chunk %d of %d", //elan:vet-allow hotpathalloc — cold error path, never taken in the zero-alloc steady state
					rank, msg.idx, len(msg.data), owned, hi-lo)
			}
			copy(vec[lo:hi], msg.data)
			sc.put(msg.data)
		}
		// P3: intra-node allgather of the global sum.
		if err := g.ringAllGather(members, pos, vec); err != nil {
			return err
		}
	}
	return nil
}
