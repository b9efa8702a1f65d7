package core

import (
	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/trace"
)

// AllreduceThreeLevel is the socket-aware all-to-all reduction (the
// multi-level generalization of the paper's future-work section):
//
//	Step 1: cores ship vectors to their *socket* leader (cheapest coherence
//	        domain); the socket leader combines;
//	Step 2: socket leaders ship partials to the *node* leader; it combines;
//	Step 3: node leaders run recursive doubling over the network;
//	Steps 4-5: results cascade back down node -> socket -> core.
//
// Flag layout: slot 0 socket arrivals, slot 1 socket release, slot 2 node
// arrivals, slot 3 node release.
func AllreduceThreeLevel[T any](v *team.View, buf []T, op coll.Op[T]) {
	t := v.T
	v.Img.World().Stats().Count(trace.OpReduce)
	if t.Size() == 1 {
		return
	}
	n := len(buf)
	es := pgas.ElemSize[T]()
	alg := "red3." + op.Name + "." + pgas.TypeName[T]()
	st := coll.GetState(v, alg, 4)
	ep := st.Next(v)
	// One coarray per role: socket leaders' inboxes for their socket
	// group, node leaders' inboxes for the other socket leaders, and the
	// result landing. The two inboxes must not share regions: at a node
	// leader both its own socket's members and the other socket leaders
	// deposit concurrently.
	maxGroup, maxLead := t.MaxSocketShape()
	sockIn, cap_ := coll.Scratch[T](v, alg, "inbox", n, maxGroup)
	nodeIn, _ := coll.Scratch[T](v, alg, "nodeinbox", n, maxLead)
	results, _ := coll.Scratch[T](v, alg, "result", n, 1)
	parity := int(ep % 2)
	sockRegion := func(k int) int { return (parity*maxGroup + k) * cap_ }
	nodeRegion := func(k int) int { return (parity*maxLead + k) * cap_ }
	resultRegion := parity * cap_
	me := v.Img

	gi := t.GroupOf(v.Rank)
	nodeLeader := t.LeaderOf(v.Rank)
	sgroups := t.SocketGroups(gi)
	sleaders := t.SocketLeaders(gi)
	mySocketGroup, mySocketLeader := socketOf(sgroups, sleaders, v.Rank)

	if v.Rank != mySocketLeader {
		// Step 1 (core): contribute to the socket leader, await result.
		pgas.PutThenNotify(me, sockIn, t.GlobalRank(mySocketLeader), sockRegion(groupPos(mySocketGroup, v.Rank)), buf, st.Flags, 0, 1, pgas.ViaShm)
		me.WaitFlagGE(st.Flags, me.Rank(), 1, ep)
		copy(buf, pgas.Local(results, me)[resultRegion:resultRegion+n])
		me.MemWork(es * n)
		return
	}
	// Socket leader: combine the socket group's vectors.
	if len(mySocketGroup) > 1 {
		me.WaitFlagGE(st.Flags, me.Rank(), 0, ep*int64(len(mySocketGroup)-1))
		local := pgas.Local(sockIn, me)
		for i, r := range mySocketGroup {
			if r == v.Rank {
				continue
			}
			off := sockRegion(i)
			op.Combine(buf, local[off:off+n])
			me.MemWork(2 * es * n)
		}
	}
	if v.Rank != nodeLeader {
		// Step 2 (socket leader): contribute to the node leader, await
		// result, then release the socket.
		pgas.PutThenNotify(me, nodeIn, t.GlobalRank(nodeLeader), nodeRegion(groupPos(sleaders, v.Rank)), buf, st.Flags, 2, 1, pgas.ViaShm)
		me.WaitFlagGE(st.Flags, me.Rank(), 3, ep)
		copy(buf, pgas.Local(results, me)[resultRegion:resultRegion+n])
		me.MemWork(es * n)
	} else {
		// Node leader: combine the other socket leaders' partials.
		if len(sleaders) > 1 {
			me.WaitFlagGE(st.Flags, me.Rank(), 2, ep*int64(len(sleaders)-1))
			local := pgas.Local(nodeIn, me)
			for i, r := range sleaders {
				if r == v.Rank {
					continue
				}
				off := nodeRegion(i)
				op.Combine(buf, local[off:off+n])
				me.MemWork(2 * es * n)
			}
		}
		// Step 3: network recursive doubling among node leaders.
		coll.SubgroupAllreduceRD(v, t.Leaders(), t.LeaderPos(v.Rank), buf, op, "core.red3lead."+op.Name, pgas.ViaConduit)
		// Step 4: release the other socket leaders.
		for _, sl := range sleaders {
			if sl == v.Rank {
				continue
			}
			pgas.PutThenNotify(me, results, t.GlobalRank(sl), resultRegion, buf, st.Flags, 3, 1, pgas.ViaShm)
		}
	}
	// Step 5: release my socket group.
	for _, r := range mySocketGroup {
		if r == v.Rank {
			continue
		}
		pgas.PutThenNotify(me, results, t.GlobalRank(r), resultRegion, buf, st.Flags, 1, 1, pgas.ViaShm)
	}
}
