package coll

import (
	"fmt"

	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// GatherLinear collects every member's send block (n = len(send) elements)
// at team rank root: recv[r*n:(r+1)*n] = member r's send. recv is
// significant only at the root and must hold NumImages()*len(send) elements
// there. The centralized scheme — O(n) serialized messages into one image —
// with the ReduceToRootLinear credit protocol: senders are parity
// credit-gated so a landing region is never overwritten before the root has
// copied it out.
//
// Flag layout: slots 0-1 parity arrivals at the root, slots 2-3 parity
// credits back to the senders.
func GatherLinear[T any](v *team.View, root int, send, recv []T, via pgas.Via) {
	sz := v.NumImages()
	n := len(send)
	es := pgas.ElemSize[T]()
	v.Img.World().Stats().Count(trace.OpReduce)
	if v.Rank == root {
		if len(recv) < sz*n {
			panic(fmt.Sprintf("coll: gather recv %d < %d", len(recv), sz*n))
		}
		copy(recv[root*n:root*n+n], send)
		v.Img.MemWork(es * n)
	}
	if sz == 1 {
		return
	}
	st := GetState(v, "ga.lin."+via.String()+"."+tag[T](), 4)
	ep := st.Next(v)
	co, cap_ := Scratch[T](v, "ga.lin", "landing", n, sz)
	parity := int(ep % 2)
	arriveSlot := parity
	creditSlot := 2 + parity
	me := v.Img
	if v.Rank == root {
		// Arrival counts are root-dependent, so count exactly.
		st.Await(v, arriveSlot, int64(sz-1))
		local := pgas.Local(co, me)
		for r := 0; r < sz; r++ {
			if r == root {
				continue
			}
			off := (parity*sz + r) * cap_
			copy(recv[r*n:r*n+n], local[off:off+n])
			me.MemWork(es * n)
			me.NotifyAdd(st.Flags, v.T.GlobalRank(r), creditSlot, 1, via)
		}
		return
	}
	st.Gate(v, creditSlot, 1)
	off := (parity*sz + v.Rank) * cap_
	pgas.PutThenNotify(me, co, v.T.GlobalRank(root), off, send, st.Flags, arriveSlot, 1, via)
}

// GatherBinomial collects the per-member blocks up the "low bits free"
// binomial tree over relative ranks (the mirror of ScatterBinomial): every
// internal node assembles the packed blocks of its subtree [rel,
// rel+lowbit(rel)) — its own block plus each child's packed range — and
// ships the whole range to its parent, so each block crosses the wire once
// per tree level it climbs.
//
// The protocol keys everything by sender, like SubgroupReduceToRoot: each
// member owns one arrival flag slot (its absolute team rank) and writes a
// disjoint slice of its parent's parity landing area; a parent credits each
// child after consuming (on a slot identifying the parent and parity), and
// a child may not ship before the credit for its previous same-parity send
// to that parent arrived.
//
// Flag layout: slots [0, n) sender arrivals; slot n+2·p+parity the credit
// from parent p.
func GatherBinomial[T any](v *team.View, root int, send, recv []T, via pgas.Via) {
	sz := v.NumImages()
	n := len(send)
	es := pgas.ElemSize[T]()
	v.Img.World().Stats().Count(trace.OpReduce)
	if v.Rank == root {
		if len(recv) < sz*n {
			panic(fmt.Sprintf("coll: gather recv %d < %d", len(recv), sz*n))
		}
		copy(recv[root*n:root*n+n], send)
		v.Img.MemWork(es * n)
	}
	if sz == 1 {
		return
	}
	st := GetState(v, "ga.binom."+via.String()+"."+tag[T](), 3*sz)
	ep := st.Next(v)
	// Landing area: my whole relative subtree packed n-contiguous, per
	// parity; children write disjoint slices of it.
	co, cap_ := Scratch[T](v, "ga.binom", "landing", sz*n, 1)
	parity := int(ep % 2)
	base := parity * cap_
	me := v.Img
	rel := (v.Rank - root + sz) % sz
	global := func(relIdx int) int { return v.T.GlobalRank((relIdx + root) % sz) }
	local := pgas.Local(co, me)
	span := sz
	if rel != 0 {
		span = rel & -rel
		if rel+span > sz {
			span = sz - rel
		}
	}
	copy(local[base:base+n], send) // my own block leads my packed range
	me.MemWork(es * n)
	// Collect the children's packed subtree ranges (child rel+2^k for every
	// k below lowbit(rel), bounded by sz).
	for k := rounds(sz) - 1; k >= 0; k-- {
		if rel%(1<<(k+1)) == 0 && rel+1<<k < sz {
			childAbs := (rel + 1<<k + root) % sz
			st.Await(v, childAbs, 1)
		}
	}
	creditKids := func() {
		for k := rounds(sz) - 1; k >= 0; k-- {
			if rel%(1<<(k+1)) == 0 && rel+1<<k < sz {
				me.NotifyAdd(st.Flags, global(rel+1<<k), sz+2*v.Rank+parity, 1, via)
			}
		}
	}
	if rel == 0 {
		// Root: unpack relative order back to absolute team ranks.
		for q := 1; q < sz; q++ {
			b := (q + root) % sz
			copy(recv[b*n:b*n+n], local[base+q*n:base+(q+1)*n])
		}
		me.MemWork(es * (sz - 1) * n)
		creditKids()
		return
	}
	parentRel := rel - (rel & -rel)
	parentAbs := (parentRel + root) % sz
	creditSlot := sz + 2*parentAbs + parity
	st.Gate(v, creditSlot, 1)
	pgas.PutThenNotify(me, co, global(parentRel), base+(rel-parentRel)*n,
		local[base:base+span*n], st.Flags, v.Rank, 1, via)
	creditKids()
}
