package coll

import (
	"fmt"

	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// SubgroupAllreduceRD performs a recursive-doubling all-to-all reduction
// over an arbitrary subgroup of a team. group lists the participating team
// ranks; myIdx is the caller's index within group. buf is combined in place:
// on return every participant's buf holds the reduction of all
// participants' inputs.
//
// Non-power-of-two sizes use the standard folding: the trailing "extra"
// members first contribute their vector to a partner in the power-of-two
// core and receive the final result from it afterwards.
//
// The hierarchy-aware two-level reduction (internal/core) reuses this with
// group = the team's node leaders; the flat baseline uses the whole team.
func SubgroupAllreduceRD[T any](v *team.View, group []int, myIdx int, buf []T, op Op[T], alg string, via pgas.Via) {
	g := len(group)
	if g == 1 {
		return
	}
	n := len(buf)
	es := pgas.ElemSize[T]()
	nr := rounds(floorPow2(g))
	st := GetState(v, alg+".rd."+op.Name+"."+tag[T](), nr+2)
	ep := st.Next(v)
	regions := nr + 2 // rd rounds, extra-contribution, result
	co, cap_ := Scratch[T](v, alg+".rd."+op.Name, "landing", n, regions)
	parity := int(ep % 2)
	region := func(k int) int { return (parity*regions + k) * cap_ }
	me := v.Img
	global := func(idx int) int { return v.T.GlobalRank(group[idx]) }

	p2 := floorPow2(g)
	extras := g - p2
	slotExtra, slotResult := nr, nr+1

	if myIdx >= p2 {
		// Fold in: ship to the core partner, then wait for the result.
		partner := myIdx - p2
		pgas.PutThenNotify(me, co, global(partner), region(slotExtra), buf, st.Flags, slotExtra, 1, via)
		me.WaitFlagGE(st.Flags, me.Rank(), slotResult, ep)
		copy(buf, pgas.Local(co, me)[region(slotResult):region(slotResult)+n])
		me.MemWork(es * n)
		return
	}
	if myIdx < extras {
		me.WaitFlagGE(st.Flags, me.Rank(), slotExtra, ep)
		op.Combine(buf, pgas.Local(co, me)[region(slotExtra):region(slotExtra)+n])
		me.MemWork(2 * es * n)
	}
	for k := 0; 1<<k < p2; k++ {
		partner := myIdx ^ 1<<k
		pgas.PutThenNotify(me, co, global(partner), region(k), buf, st.Flags, k, 1, via)
		me.WaitFlagGE(st.Flags, me.Rank(), k, ep)
		op.Combine(buf, pgas.Local(co, me)[region(k):region(k)+n])
		me.MemWork(2 * es * n)
	}
	if myIdx < extras {
		pgas.PutThenNotify(me, co, global(myIdx+p2), region(slotResult), buf, st.Flags, slotResult, 1, via)
	}
}

// AllreduceRD is the flat recursive-doubling all-to-all reduction over the
// whole team through the conduit path — a standard baseline for co_sum and
// friends.
func AllreduceRD[T any](v *team.View, buf []T, op Op[T], via pgas.Via) {
	v.Img.World().Stats().Count(trace.OpReduce)
	SubgroupAllreduceRD(v, v.T.Ranks(), v.Rank, buf, op, "red.flat."+via.String(), via)
}

// AllreduceLinear gathers every vector at the team's first member, combines
// there, and ships the result back out — the centralized counterpart the
// paper's methodology discussion contrasts with distributed algorithms.
func AllreduceLinear[T any](v *team.View, buf []T, op Op[T], via pgas.Via) {
	v.Img.World().Stats().Count(trace.OpReduce)
	n := len(buf)
	es := pgas.ElemSize[T]()
	sz := v.NumImages()
	if sz == 1 {
		return
	}
	st := GetState(v, "red.lin."+op.Name+"."+via.String()+"."+tag[T](), 2)
	ep := st.Next(v)
	// The root's inbox holds one region per member per parity; every
	// member's result landing holds one region per parity. Only the root
	// ever touches its inbox slab.
	inbox, icap := Scratch[T](v, "red.lin."+op.Name, "inbox", n, sz)
	res, rcap := Scratch[T](v, "red.lin."+op.Name, "result", n, 1)
	parity := int(ep % 2)
	root := v.T.GlobalRank(0)
	me := v.Img
	if v.Rank == 0 {
		me.WaitFlagGE(st.Flags, root, 0, ep*int64(sz-1))
		local := pgas.Local(inbox, me)
		for r := 1; r < sz; r++ {
			off := (parity*sz + r) * icap
			op.Combine(buf, local[off:off+n])
			me.MemWork(2 * es * n)
		}
		for r := 1; r < sz; r++ {
			pgas.PutThenNotify(me, res, v.T.GlobalRank(r), parity*rcap, buf, st.Flags, 1, 1, via)
		}
		return
	}
	off := (parity*sz + v.Rank) * icap
	pgas.PutThenNotify(me, inbox, root, off, buf, st.Flags, 0, 1, via)
	me.WaitFlagGE(st.Flags, me.Rank(), 1, ep)
	copy(buf, pgas.Local(res, me)[parity*rcap:parity*rcap+n])
	me.MemWork(es * n)
}

// AllreduceTree reduces up a binomial tree to the first member and
// broadcasts the result back down the same tree. 2(n−1) vector messages
// with logarithmic depth.
func AllreduceTree[T any](v *team.View, buf []T, op Op[T], via pgas.Via) {
	v.Img.World().Stats().Count(trace.OpReduce)
	n := len(buf)
	es := pgas.ElemSize[T]()
	sz := v.NumImages()
	if sz == 1 {
		return
	}
	nr := rounds(sz)
	st := GetState(v, "red.tree."+op.Name+"."+via.String()+"."+tag[T](), nr+1)
	ep := st.Next(v)
	regions := nr + 1
	co, cap_ := Scratch[T](v, "red.tree."+op.Name, "landing", n, regions)
	parity := int(ep % 2)
	region := func(k int) int { return (parity*regions + k) * cap_ }
	me := v.Img
	r := v.Rank
	kids := binomialChildren(r, sz)
	// Gather: children arrive on per-level slots, deepest first.
	for i := len(kids) - 1; i >= 0; i-- {
		me.WaitFlagGE(st.Flags, me.Rank(), i, ep)
		op.Combine(buf, pgas.Local(co, me)[region(i):region(i)+n])
		me.MemWork(2 * es * n)
	}
	if r != 0 {
		parent := r - (r & -r)
		// My slot at the parent is my position among its children.
		slot := childSlot(parent, r)
		pgas.PutThenNotify(me, co, v.T.GlobalRank(parent), region(slot), buf, st.Flags, slot, 1, via)
		me.WaitFlagGE(st.Flags, me.Rank(), nr, ep)
		copy(buf, pgas.Local(co, me)[region(nr):region(nr)+n])
		me.MemWork(es * n)
	}
	for _, c := range kids {
		pgas.PutThenNotify(me, co, v.T.GlobalRank(c), region(nr), buf, st.Flags, nr, 1, via)
	}
}

// childSlot returns child's index within parent's binomial children list.
func childSlot(parent, child int) int {
	kids := binomialChildren(parent, child+1)
	for i, k := range kids {
		if k == child {
			return i
		}
	}
	panic(fmt.Sprintf("coll: %d is not a binomial child of %d", child, parent))
}

// AllreduceRing is the bandwidth-optimal ring all-reduce (reduce-scatter
// pass followed by an all-gather pass, 2(n−1) steps of n/size chunks). An
// extension beyond the paper's baselines, included for the ablation bench.
func AllreduceRing[T any](v *team.View, buf []T, op Op[T], via pgas.Via) {
	v.Img.World().Stats().Count(trace.OpReduce)
	sz := v.NumImages()
	n := len(buf)
	es := pgas.ElemSize[T]()
	if sz == 1 {
		return
	}
	if n < sz {
		// Tiny vectors degenerate; fall back to recursive doubling.
		SubgroupAllreduceRD(v, v.T.Ranks(), v.Rank, buf, op, "red.ringfallback."+via.String(), via)
		return
	}
	steps := 2 * (sz - 1)
	st := GetState(v, "red.ring."+op.Name+"."+via.String()+"."+tag[T](), steps)
	ep := st.Next(v)
	chunk := (n + sz - 1) / sz
	// One inbox region per step per episode parity: ring skew can reach
	// sz−1 steps, so regions cannot be shared between nearby steps.
	co, cap_ := Scratch[T](v, "red.ring."+op.Name, "landing", chunk, steps)
	parity := int(ep % 2)
	region := func(step int) int { return (parity*steps + step) * cap_ }
	me := v.Img
	r := v.Rank
	next := v.T.GlobalRank((r + 1) % sz)
	bounds := func(c int) (lo, hi int) {
		lo = c * chunk
		hi = lo + chunk
		if hi > n {
			hi = n
		}
		if lo > n {
			lo = n
		}
		return
	}
	// Reduce-scatter: in step s, send chunk (r-s) mod sz to the right,
	// combine incoming chunk (r-s-1) mod sz.
	for s := 0; s < sz-1; s++ {
		sendC := ((r-s)%sz + sz) % sz
		recvC := ((r-s-1)%sz + sz) % sz
		lo, hi := bounds(sendC)
		reg := region(s)
		pgas.PutThenNotify(me, co, next, reg, buf[lo:hi], st.Flags, s, 1, via)
		me.WaitFlagGE(st.Flags, me.Rank(), s, ep)
		rlo, rhi := bounds(recvC)
		op.Combine(buf[rlo:rhi], pgas.Local(co, me)[reg:reg+(rhi-rlo)])
		me.MemWork(2 * es * (rhi - rlo))
	}
	// All-gather: circulate the finished chunks.
	for s := 0; s < sz-1; s++ {
		sendC := ((r+1-s)%sz + sz) % sz
		recvC := ((r-s)%sz + sz) % sz
		lo, hi := bounds(sendC)
		reg := region(sz - 1 + s)
		pgas.PutThenNotify(me, co, next, reg, buf[lo:hi], st.Flags, sz-1+s, 1, via)
		me.WaitFlagGE(st.Flags, me.Rank(), sz-1+s, ep)
		rlo, rhi := bounds(recvC)
		copy(buf[rlo:rhi], pgas.Local(co, me)[reg:reg+(rhi-rlo)])
		me.MemWork(es * (rhi - rlo))
	}
}
