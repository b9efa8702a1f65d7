package coll

import (
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// SubgroupReduceToRoot reduces the participants' vectors onto the
// rootIdx-th member of group along a binomial tree; only the root's buf
// holds the result on return (the CAF co_sum(result_image=...) semantics).
//
// Unlike all-to-all reductions, a reduce-to-one has no downward data flow
// to throttle buffer reuse, and the tree shape changes with the root, so
// the protocol keys everything by *sender*: each member owns one arrival
// flag slot and one parity-pair of landing regions at every other member
// (single writer per slot and region; per-pair FIFO delivery makes the
// counters exact). A parent credits each child after combining — on a slot
// identifying the parent and parity, because only same-parity sends to the
// *same* parent reuse a landing region — and a child may not ship a
// contribution before the credit for its previous same-parity send to that
// parent arrived. Memory note: the scratch is 2·|group| regions per member,
// so prefer modest group sizes for large vectors (the two-level runtime
// only ever passes node-leader groups here).
//
// Flag layout: slots [0, g) sender arrivals; slot g+2·p+parity the credit
// from parent p.
func SubgroupReduceToRoot[T any](v *team.View, group []int, myIdx, rootIdx int, buf []T, op Op[T], alg string, via pgas.Via) {
	g := len(group)
	if g == 1 {
		return
	}
	n := len(buf)
	es := pgas.ElemSize[T]()
	st := GetState(v, alg+".redto."+tag[T](), 3*g)
	ep := st.Next(v)
	co, cap_ := Scratch[T](v, alg+".redto", "landing", n, g)
	parity := int(ep % 2)
	region := func(senderIdx int) int { return (parity*g + senderIdx) * cap_ }
	me := v.Img
	rel := (myIdx - rootIdx + g) % g
	globalOf := func(idx int) int { return v.T.GlobalRank(group[idx]) }

	// Children in the relative binomial tree (same shape as the gather of
	// AllreduceTree): rel's children are rel+2^k for k below rel's lowest
	// set bit. Deepest subtree first.
	kids := binomialChildren(rel, g)
	for i := len(kids) - 1; i >= 0; i-- {
		kidIdx := (kids[i] + rootIdx) % g
		st.Await(v, kidIdx, 1)
		off := region(kidIdx)
		op.Combine(buf, pgas.Local(co, me)[off:off+n])
		me.MemWork(2 * es * n)
		// Credit the child: its parity-e landing region here is free.
		me.NotifyAdd(st.Flags, globalOf(kidIdx), g+2*myIdx+parity, 1, via)
	}
	if rel == 0 {
		return
	}
	// Gate on the credit for my previous same-parity send to this parent.
	parentIdx := (rel - (rel & -rel) + rootIdx) % g
	creditSlot := g + 2*parentIdx + parity
	st.Gate(v, creditSlot, 1)
	pgas.PutThenNotify(me, co, globalOf(parentIdx), region(myIdx), buf, st.Flags, myIdx, 1, via)
}

// ReduceToRoot is the flat binomial reduce-to-one over the whole team;
// root is a team rank.
func ReduceToRoot[T any](v *team.View, root int, buf []T, op Op[T], via pgas.Via) {
	v.Img.World().Stats().Count(trace.OpReduce)
	SubgroupReduceToRoot(v, v.T.Ranks(), v.Rank, root, buf, op, "redto.flat."+op.Name+"."+via.String(), via)
}

// ReduceToRootLinear gathers every member's vector at the root directly and
// combines there — the centralized scheme, O(n) serialized messages into one
// image. Senders are credit-gated per parity so landing regions are never
// overwritten before the root has combined them.
//
// Flag layout: slots 0-1 parity arrivals at the root, slots 2-3 parity
// credits back to the senders.
func ReduceToRootLinear[T any](v *team.View, root int, buf []T, op Op[T], via pgas.Via) {
	v.Img.World().Stats().Count(trace.OpReduce)
	sz := v.NumImages()
	if sz == 1 {
		return
	}
	n := len(buf)
	es := pgas.ElemSize[T]()
	st := GetState(v, "redto.lin."+op.Name+"."+via.String()+"."+tag[T](), 4)
	ep := st.Next(v)
	co, cap_ := Scratch[T](v, "redto.lin."+op.Name, "landing", n, sz)
	parity := int(ep % 2)
	arriveSlot := parity
	creditSlot := 2 + parity
	me := v.Img
	if v.Rank == root {
		// The root changes between episodes, so count same-parity
		// arrivals exactly.
		st.Await(v, arriveSlot, int64(sz-1))
		local := pgas.Local(co, me)
		for r := 0; r < sz; r++ {
			if r == root {
				continue
			}
			off := (parity*sz + r) * cap_
			op.Combine(buf, local[off:off+n])
			me.MemWork(2 * es * n)
			me.NotifyAdd(st.Flags, v.T.GlobalRank(r), creditSlot, 1, via)
		}
		return
	}
	st.Gate(v, creditSlot, 1)
	off := (parity*sz + v.Rank) * cap_
	pgas.PutThenNotify(me, co, v.T.GlobalRank(root), off, buf, st.Flags, arriveSlot, 1, via)
}
