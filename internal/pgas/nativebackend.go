// This file is the deliberate wall-clock side of pgas: the native backend
// runs on real goroutines against the real machine clock, and every timing
// observable it produces is wall time by design. The determinism story for
// this backend is bitwise *data* conformance against the sim backend, not
// timing replay, so the file-wide opt-out below is the sanctioned one the
// simdet analyzer documents.
//caflint:allow wallclock -- native backend: real goroutines on the real clock by design

package pgas

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cafteams/internal/machine"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

// This file is the native shared-memory transport: images run as real
// goroutines in this process's address space. A put or get is a memcpy
// committed synchronously in the caller; flag notifications are sync/atomic
// mutations followed by a condition-variable broadcast to the owner rank's
// waiters; Sleep/Compute burn real wall-clock time (the modeled durations,
// slept for real); MemWork and Quiet are no-ops because the work they
// account for in the simulator either happens for real inline or has
// already completed by the time the call returns.
//
// The memory model leans entirely on the flag discipline the algorithms
// already follow: a payload write is published by the atomic flag increment
// that follows it (PutThenNotify / NotifyAdd), and the consumer's atomic
// threshold check in WaitFlagGE acquires it before touching the payload.
// That is the same release/acquire chain a real one-sided runtime provides,
// and it is what makes the Go race detector meaningful over this backend.

// nativeWorld is the native backend's per-world state.
type nativeWorld struct {
	start time.Time
	cells []*nativeCell // per rank
	wg    sync.WaitGroup
}

// nativeCell guards rank r's flag waiters. Waits hold mu across the
// predicate check and cond.Wait; wakers take (and release) mu before
// broadcasting, so a mutation between a waiter's failed predicate check and
// its Wait cannot be lost — the waker's Lock blocks until the waiter is
// parked.
type nativeCell struct {
	mu   sync.Mutex
	cond *sync.Cond
	// watchers are the ranks whose progress engine waits on a flag in this
	// rank's rows (see WaitAsync); guarded by mu.
	watchers []int
}

func nativeW(w *World) *nativeWorld { return w.ts.(*nativeWorld) }

// NewNativeWorld creates a world whose images run as real goroutines on
// this machine, with wall-clock timing. model is still consulted for
// Compute/Sleep durations (slept for real); topo still defines the
// image-to-node map the hierarchy-aware algorithms key their phase
// structure on — on the native backend "nodes" are logical groups within
// one address space, the shape the paper's two-level algorithms exploit.
func NewNativeWorld(model *machine.Model, topo *topology.Topology, stats *trace.Stats) *World {
	w := newWorld(nativeTransport{}, model, topo, stats)
	nw := &nativeWorld{cells: make([]*nativeCell, topo.NumImages())}
	for i := range nw.cells {
		c := &nativeCell{}
		c.cond = sync.NewCond(&c.mu)
		nw.cells[i] = c
	}
	w.ts = nw
	return w
}

// nativeTransport implements Transport on real goroutines.
type nativeTransport struct{}

func (nativeTransport) Name() string { return "native" }

// Immediate reports true: native puts commit inside the call, so Put may
// read the caller's buffer directly with no staging copy.
func (nativeTransport) Immediate() bool { return true }

func (nativeTransport) Launch(w *World, body func(*Image)) {
	nw := nativeW(w)
	nw.start = time.Now()
	nw.wg.Add(len(w.images))
	for _, img := range w.images {
		img := img
		go func() {
			defer nw.wg.Done()
			body(img)
		}()
	}
	fc := w.faults
	if fc.plan != nil {
		// The native backend honors kill events (wall-clock ns after
		// launch); NIC and link faults have no native substrate and are
		// ignored — a documented backend difference.
		for _, ev := range fc.plan.Events {
			if ev.Kind != FaultKillImage && ev.Kind != FaultKillNode {
				continue
			}
			ev := ev
			fc.timers = append(fc.timers, time.AfterFunc(time.Duration(ev.At), func() {
				nativeApplyKill(w, ev)
			}))
		}
	}
	if fc.cfg.Heartbeat > 0 {
		startNativeHeartbeats(w, nw)
	}
}

// nativeApplyKill executes one planned kill on the native backend.
func nativeApplyKill(w *World, ev FaultEvent) {
	fc := w.faults
	kill := func(rank int) {
		if fc.isDone(rank) || fc.isDead(rank) {
			return
		}
		nativeTransport{}.Kill(w, rank)
		if !ev.Silent {
			fc.announce(rank, w.killTime(), CauseKilled, nil)
		}
	}
	switch ev.Kind {
	case FaultKillImage:
		kill(ev.Image)
	case FaultKillNode:
		for _, im := range w.images {
			if im.node == ev.Node {
				kill(im.rank)
			}
		}
	}
}

// startNativeHeartbeats starts one stamper goroutine per image plus a
// monitor; all of them exit when their image dies/finishes or when Drive
// tears the world down.
func startNativeHeartbeats(w *World, nw *nativeWorld) {
	fc := w.faults
	h := time.Duration(fc.cfg.Heartbeat)
	stamp := func(r int) { atomic.StoreInt64(&fc.hbStamp[r], time.Since(nw.start).Nanoseconds()) }
	for _, im := range w.images {
		r := im.rank
		stamp(r)
		go func() {
			for !fc.isDone(r) && !fc.isDead(r) {
				stamp(r)
				select {
				case <-fc.stopCh:
					return
				case <-time.After(h):
				}
			}
		}()
	}
	go func() {
		stale := fc.cfg.staleAfter()
		for {
			watching := false
			now := time.Since(nw.start).Nanoseconds()
			for _, im := range w.images {
				r := im.rank
				if fc.isDone(r) || fc.isFailed(r) {
					continue
				}
				if now-atomic.LoadInt64(&fc.hbStamp[r]) > stale {
					fc.announce(r, now, CauseHeartbeat, nil)
					continue
				}
				watching = true
			}
			if !watching {
				return
			}
			select {
			case <-fc.stopCh:
				return
			case <-time.After(h):
			}
		}
	}()
}

func (nativeTransport) Drive(w *World) Time {
	nw := nativeW(w)
	nw.wg.Wait()
	w.faults.stop()
	return time.Since(nw.start).Nanoseconds()
}

func (nativeTransport) Now(im *Image) Time {
	return time.Since(nativeW(im.w).start).Nanoseconds()
}

func (nativeTransport) Sleep(im *Image, d Time) {
	nativeCheck(im)
	if d > 0 {
		time.Sleep(time.Duration(d))
	}
	nativeCheck(im) // a kill during the sleep takes effect as it ends
}

// MemWork is a no-op: the packing/combining copies it accounts for in the
// simulator happen for real on this backend.
func (nativeTransport) MemWork(im *Image, nbytes int) {}

// Quiet is a no-op (every one-sided operation committed before returning)
// except for the kill check: a poisoned image unwinds here like anywhere.
func (nativeTransport) Quiet(im *Image) { nativeCheck(im) }

// nativeCheck unwinds a killed (poisoned) image at its next runtime call;
// this is the native analogue of the sim kernel interrupting a process at
// its next blocking point.
func nativeCheck(im *Image) {
	if im.w.faults.isDead(im.rank) {
		panic(imageKilled{rank: im.rank})
	}
}

// nativeWait parks im on cellRank's condition until pred holds, unwinding
// on a kill of im itself, on a failure announcement (epoch change), or —
// when configured — on WaitTimeout expiry. The timer only broadcasts; the
// waiter itself decides it timed out, so spurious wakeups are harmless.
func nativeWait(im *Image, cellRank int, why string, pred func() bool) {
	nativeCheck(im)
	nw := nativeW(im.w)
	fc := im.w.faults
	c := nw.cells[cellRank]
	// Interrupt on any announcement this image has not acknowledged (see
	// faultCtx.ackEpoch), not just ones newer than the wait.
	ep0 := fc.ackEpoch[im.rank]
	var deadline time.Time
	var timer *time.Timer
	if to := fc.cfg.WaitTimeout; to > 0 {
		deadline = time.Now().Add(time.Duration(to))
		timer = time.AfterFunc(time.Duration(to), func() { nw.wake(cellRank) })
		defer timer.Stop()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for !pred() {
		if fc.isDead(im.rank) {
			panic(imageKilled{rank: im.rank})
		}
		if fc.epochLoad() != ep0 {
			panic(fc.failError(why, false))
		}
		if timer != nil && !time.Now().Before(deadline) {
			panic(fc.failError(why, true))
		}
		c.cond.Wait()
	}
}

// wake broadcasts to rank's flag waiters after a flag mutation. Taking and
// releasing the cell lock first orders the broadcast after any in-progress
// predicate check (see nativeCell).
func (nw *nativeWorld) wake(rank int) {
	c := nw.cells[rank]
	c.mu.Lock()
	c.cond.Broadcast()
	var watchers []int
	if len(c.watchers) > 0 {
		watchers = append(watchers, c.watchers...)
	}
	c.mu.Unlock()
	for _, r := range watchers {
		w := nw.cells[r]
		w.mu.Lock()
		w.cond.Broadcast()
		w.mu.Unlock()
	}
}

func (nativeTransport) Put(im *Image, target, nbytes int, via Via, commit func()) {
	nativeCheck(im)
	commit()
}

func (nativeTransport) Get(im *Image, target, nbytes int, commit func()) {
	nativeCheck(im)
	commit()
}

func (nativeTransport) PutThenNotify(im *Image, target, nbytes int, via Via, commit func(), f *Flags, idx int, delta int64) {
	nativeCheck(im)
	commit()
	f.add(target, idx, delta)
	nativeW(im.w).wake(target)
}

func (nativeTransport) NotifyAdd(im *Image, f *Flags, target, idx int, delta int64, via Via) {
	nativeCheck(im)
	f.add(target, idx, delta)
	nativeW(im.w).wake(target)
}

func (nativeTransport) NotifySet(im *Image, f *Flags, target, idx int, val int64, via Via) {
	nativeCheck(im)
	f.storeMax(target, idx, val)
	nativeW(im.w).wake(target)
}

func (nativeTransport) FetchOp(im *Image, f *Flags, target, idx int, op AtomicOp, operand int64) int64 {
	nativeCheck(im)
	old := f.fetchOp(target, idx, op, operand)
	nativeW(im.w).wake(target)
	return old
}

func (nativeTransport) CompareAndSwap(im *Image, f *Flags, target, idx int, expected, desired int64) int64 {
	nativeCheck(im)
	old := f.compareAndSwap(target, idx, expected, desired)
	if old == expected {
		nativeW(im.w).wake(target)
	}
	return old
}

func (nativeTransport) WaitFlagGE(im *Image, f *Flags, owner, idx int, min int64) {
	nativeWait(im, owner,
		fmt.Sprintf("flag %s[%d][%d]>=%d", f.name, owner, idx, min),
		func() bool { return f.load(owner, idx) >= min })
}

// WaitAsync registers im as a watcher of rows before waiting on its own
// cell. A mutation on a watched row that lands after registration wakes im
// through wake's watcher pass; one that landed before it is seen by the
// first ready() check, so no arrival can be missed.
func (nativeTransport) WaitAsync(im *Image, rows []int, ready func() bool) {
	nw := nativeW(im.w)
	for _, r := range rows {
		c := nw.cells[r]
		c.mu.Lock()
		c.watchers = append(c.watchers, im.rank)
		c.mu.Unlock()
	}
	defer func() {
		for _, r := range rows {
			c := nw.cells[r]
			c.mu.Lock()
			c.watchers = removeInt(c.watchers, im.rank)
			c.mu.Unlock()
		}
	}()
	nativeWait(im, im.rank, "async progress", ready)
}

func (nativeTransport) WakeRank(w *World, rank int) {
	nativeW(w).wake(rank)
}

// Kill poisons image rank: its current wait (woken by the broadcast below)
// or its next transport call unwinds the goroutine with the kill sentinel.
// An image busy in a long Compute dies at the sleep's end — the native
// backend cannot interrupt a real time.Sleep, a documented difference from
// the sim backend's immediate unwind.
func (nativeTransport) Kill(w *World, rank int) {
	w.faults.markDead(rank)
	nativeTransport{}.WakeAll(w)
}

func (nativeTransport) WakeAll(w *World) {
	nw := nativeW(w)
	for r := range nw.cells {
		nw.wake(r)
	}
}

// compile-time interface checks for both transports.
var (
	_ Transport = simTransport{}
	_ Transport = nativeTransport{}
)
