package core

import (
	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
)

// This file is the entry surface of the split-phase (non-blocking)
// collectives. There is no second implementation of any protocol: Start*
// runs the named *blocking* algorithm as a coroutine on the image's
// progress engine (internal/pgas), which suspends it at every flag wait that
// is not yet satisfied and resumes it during Compute, Progress and Wait. So
// every registered allreduce, broadcast and allgather algorithm — built-in
// or user-registered — is available split-phase, with the same puts, flag
// discipline and modeled cost as its blocking run.
//
// Operations are keyed by (kind, team): split-phase operations of one kind
// on one team run one at a time per image, in start order, and a blocking
// collective of that kind first completes them (Run* calls
// Image.CompleteOps); different kinds or teams interleave freely.

// Handle is the completion handle of a split-phase collective: the caller
// initiates with Start*/Policy*Async, overlaps local work (Image.Compute
// progresses in-flight collectives), and completes with Wait. Test polls.
type Handle = pgas.AsyncOp

// opKey is the serialization unit of split-phase collectives.
type opKey struct {
	kind Kind
	team int64
}

func keyOf(k Kind, v *team.View) opKey { return opKey{kind: k, team: v.T.ID()} }

// start validates name and starts body as the split-phase operation of kind
// k on v's team.
func start(k Kind, name string, v *team.View, body func()) *Handle {
	if !HasAlgorithm(k, name) {
		panic(unknownAlg(k, name))
	}
	return v.Img.StartOp(keyOf(k, v), body)
}

// StartAllreduce initiates the named allreduce algorithm split-phase on buf
// and returns its handle; buf must not be read or written until Wait.
func StartAllreduce[T any](name string, v *team.View, buf []T, op coll.Op[T]) *Handle {
	return start(KindAllreduce, name, v, func() { RunAllreduce(name, v, buf, op) })
}

// StartBroadcast initiates the named broadcast algorithm split-phase from
// team rank root.
func StartBroadcast[T any](name string, v *team.View, root int, buf []T) *Handle {
	return start(KindBroadcast, name, v, func() { RunBroadcast(name, v, root, buf) })
}

// StartAllgather initiates the named allgather algorithm split-phase, of
// mine into out (ordered by team rank).
func StartAllgather[T any](name string, v *team.View, mine, out []T) *Handle {
	return start(KindAllgather, name, v, func() { RunAllgather(name, v, mine, out) })
}

// PolicyAllreduceAsync initiates a split-phase team allreduce with the
// algorithm the policy selects for the blocking path.
func PolicyAllreduceAsync[T any](p Policy, v *team.View, buf []T, op coll.Op[T]) *Handle {
	return StartAllreduce(p.algFor(KindAllreduce, v, len(buf), pgas.ElemSize[T]()), v, buf, op)
}

// PolicyBroadcastAsync initiates a split-phase team broadcast from team rank
// root under the policy.
func PolicyBroadcastAsync[T any](p Policy, v *team.View, root int, buf []T) *Handle {
	return StartBroadcast(p.algFor(KindBroadcast, v, len(buf), pgas.ElemSize[T]()), v, root, buf)
}

// PolicyAllgatherAsync initiates a split-phase team allgather under the
// policy.
func PolicyAllgatherAsync[T any](p Policy, v *team.View, mine, out []T) *Handle {
	return StartAllgather(p.algFor(KindAllgather, v, len(mine), pgas.ElemSize[T]()), v, mine, out)
}
