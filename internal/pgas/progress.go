package pgas

import (
	"iter"
	"slices"
)

// This file implements the per-image progress engine behind split-phase
// (non-blocking) collectives. A split-phase operation is the *blocking*
// collective body run as a coroutine (iter.Pull): whenever the body calls
// Image.WaitFlagGE on a flag that has not arrived yet, it yields that flag
// condition back to the engine instead of parking the image. The image keeps
// running its own code, and the suspended body resumes exactly where it
// stopped whenever the image gives the runtime a chance to make progress:
//
//   - AsyncOp.Wait drives the engine until the handle's operation completes;
//   - Image.Compute interleaves progress polls with the compute time, the
//     overlap the split-phase API exists for;
//   - Image.Progress polls explicitly (the CAF-style "advance the runtime"
//     call for code that spins on its own condition).
//
// Every operation carries a key. Operations with equal keys run one at a
// time per image, in start order (their bodies share per-image episode
// state); operations with different keys interleave freely.

// flagWait is the condition a suspended body is waiting for: slot idx of
// owner's row of f reaching at least min.
type flagWait struct {
	f          *Flags
	owner, idx int
	min        int64
}

func (c flagWait) ready() bool { return c.f.load(c.owner, c.idx) >= c.min }

// AsyncOp is the handle for one in-flight split-phase operation. The image
// that started the operation — and only that image — completes it with Wait
// (or observes it with Test/Done).
type AsyncOp struct {
	im   *Image
	key  any
	body func()
	// co runs body; nil until the body first runs (an operation queued
	// behind an equal key) and again once it has finished.
	co *coro

	// wait is the condition the suspended body needs; wait.f is nil until
	// the body first runs.
	wait flagWait
	done bool
	// err is the panic value that escaped the body, re-raised by Wait.
	err any
}

// coro is a coroutine that runs operation bodies one after another. When a
// body returns, the coroutine yields the zero flagWait and parks in its
// image's idle list, so starting an operation rarely creates a goroutine.
type coro struct {
	next  func() (flagWait, bool)
	stop  func()
	yield func(flagWait) bool
	body  func()
}

func newCoro() *coro {
	c := &coro{}
	c.next, c.stop = iter.Pull(func(yield func(flagWait) bool) {
		c.yield = yield
		for c.run() {
			if !yield(flagWait{}) {
				return
			}
		}
	})
	return c
}

// run runs the coroutine's current body, reporting false when the body was
// stopped while suspended.
func (c *coro) run() (finished bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(opStopped); !ok {
				panic(r)
			}
		}
	}()
	body := c.body
	c.body = nil
	body()
	return true
}

// opStopped unwinds a suspended body when its operation is stopped.
type opStopped struct{}

// Done reports whether the operation has completed. It does not progress
// the engine; see Test.
func (h *AsyncOp) Done() bool { return h.done }

// Test polls the progress engine once and reports whether the operation has
// completed — the non-blocking probe (MPI_Test / CAF "query").
func (h *AsyncOp) Test() bool {
	if !h.done {
		h.im.Progress()
	}
	h.raise()
	return h.done
}

// Wait drives the progress engine until this operation completes, blocking
// the image between polls on the flag conditions the in-flight operations
// are suspended on. Waiting also progresses every other in-flight operation
// of the image (their steps may be prerequisites for remote images'
// progress). Wait must not be called from inside an operation body.
func (h *AsyncOp) Wait() {
	im := h.im
	if im.curOp != nil {
		panic("pgas: AsyncOp.Wait called inside a split-phase operation body")
	}
	for !h.done {
		im.Progress()
		if h.done {
			break
		}
		im.awaitAsyncActivity()
	}
	h.raise()
}

// raise re-raises a panic that escaped the operation's body.
func (h *AsyncOp) raise() {
	if h.err != nil {
		panic(h.err)
	}
}

// StartOp starts body as a split-phase operation keyed by key and returns
// its handle. Unless an earlier operation with an equal key is still in
// flight, body runs at once until its first unsatisfied flag wait (the
// initiate phase). The caller must complete the handle with Wait (or poll
// Test to completion) before the image finishes; operations still pending
// when the image body returns or unwinds are stopped.
func (im *Image) StartOp(key any, body func()) *AsyncOp {
	h := &AsyncOp{im: im, key: key, body: body}
	im.pendingOps = append(im.pendingOps, h)
	if !im.queued(len(im.pendingOps) - 1) {
		im.step(h)
	}
	return h
}

// queued reports whether pending operation i must wait for an earlier,
// unfinished operation with an equal key.
func (im *Image) queued(i int) bool {
	h := im.pendingOps[i]
	for _, e := range im.pendingOps[:i] {
		if !e.done && e.key == h.key {
			return true
		}
	}
	return false
}

// step resumes h's body until it suspends again or returns. A panic out of
// the body marks h done with the panic value and unwinds the caller.
func (im *Image) step(h *AsyncOp) {
	if h.co == nil {
		if n := len(im.idle); n > 0 {
			h.co, im.idle = im.idle[n-1], im.idle[:n-1]
		} else {
			h.co = newCoro()
		}
		h.co.body = h.body
	}
	prev := im.curOp
	im.curOp = h
	ok := false
	defer func() {
		im.curOp = prev
		if !ok {
			h.done, h.err, h.co = true, recover(), nil
			if h.err != nil {
				panic(h.err)
			}
		}
	}()
	w, _ := h.co.next()
	ok = true
	if w.f != nil {
		h.wait = w
		return
	}
	h.done = true
	im.idle = append(im.idle, h.co)
	h.co = nil
}

// suspend is WaitFlagGE inside an operation body: yield the condition to the
// engine until it holds.
func (h *AsyncOp) suspend(c flagWait) {
	for !c.ready() {
		if !h.co.yield(c) {
			panic(opStopped{})
		}
	}
}

// Progress resumes every in-flight split-phase operation of this image
// whose awaited flag has arrived and returns the number still in flight. It
// never blocks. Called from inside an operation body (for example through
// Compute in a custom algorithm) it does nothing.
func (im *Image) Progress() int {
	if len(im.pendingOps) == 0 || im.curOp != nil {
		return len(im.pendingOps)
	}
	for i, h := range im.pendingOps {
		if !h.done && !im.queued(i) && (h.wait.f == nil || h.wait.ready()) {
			im.step(h)
		}
	}
	im.pendingOps = slices.DeleteFunc(im.pendingOps, (*AsyncOp).Done)
	return len(im.pendingOps)
}

// Pending returns the number of in-flight split-phase operations.
func (im *Image) Pending() int { return len(im.pendingOps) }

// CompleteOps waits out this image's in-flight operations with key, so a
// blocking collective entered outside any operation body never runs ahead
// of an earlier split-phase episode that shares its per-image state. Inside
// an operation body it does nothing.
func (im *Image) CompleteOps(key any) {
	if im.curOp != nil {
		return
	}
	for i := len(im.pendingOps) - 1; i >= 0; i-- {
		if h := im.pendingOps[i]; !h.done && h.key == key {
			h.Wait() // the latest one: equal keys complete in start order
			return
		}
	}
}

// stopOps stops every pending operation and idle coroutine. Run when the
// image body returns or unwinds, so no coroutine outlives its image.
func (im *Image) stopOps() {
	ops, idle := im.pendingOps, im.idle
	im.pendingOps, im.idle = nil, nil
	for _, h := range ops {
		if h.co != nil {
			h.co.stop()
		}
	}
	for _, c := range idle {
		c.stop()
	}
}

// awaitAsyncActivity blocks the image until some in-flight operation's
// awaited flag has arrived. The transport re-evaluates readiness whenever a
// flag lands on this image's rows or on any other row a suspended body
// waits on (a shared-memory wait on a same-node peer's counter).
func (im *Image) awaitAsyncActivity() {
	var rows []int
	for _, h := range im.pendingOps {
		if o := h.wait.owner; h.wait.f != nil && o != im.rank && !slices.Contains(rows, o) {
			rows = append(rows, o)
		}
	}
	im.w.tr.WaitAsync(im, rows, im.asyncReady)
}

// asyncReady reports whether Progress can advance some in-flight operation.
func (im *Image) asyncReady() bool {
	for _, h := range im.pendingOps {
		if h.done || (h.wait.f != nil && h.wait.ready()) {
			return true
		}
	}
	return false
}

// removeInt deletes the first x from xs in place.
func removeInt(xs []int, x int) []int {
	if i := slices.Index(xs, x); i >= 0 {
		return slices.Delete(xs, i, i+1)
	}
	return xs
}

// progressQuantum is how often Image.Compute polls the progress engine while
// split-phase operations are in flight: roughly one network latency, small
// enough that a collective round is picked up promptly, large enough that
// polling stays a few percent of compute time.
const progressQuantum = 2 * Microsecond

// computeSleep advances local compute time, interleaving progress polls
// while split-phase operations are in flight. With nothing pending, or
// inside an operation body, it is a single plain sleep.
func (im *Image) computeSleep(d Time) {
	for d > 0 && len(im.pendingOps) > 0 && im.curOp == nil {
		q := progressQuantum
		if q > d {
			q = d
		}
		im.w.tr.Sleep(im, q)
		d -= q
		im.Progress()
	}
	if d > 0 {
		im.w.tr.Sleep(im, d)
	}
}
