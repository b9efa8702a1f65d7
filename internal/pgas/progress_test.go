package pgas

import (
	"runtime"
	"testing"
)

// backendWorld is a test world labelled with its backend.
type backendWorld struct {
	backend string
	w       *World
}

// progressWorlds returns a one-node world of n images on each backend.
func progressWorlds(t *testing.T, n int) []backendWorld {
	return []backendWorld{
		{"sim", newTestWorld(t, 1, n)},
		{"native", newNativeTestWorld(t, 1, n)},
	}
}

// TestSplitPhaseWaitOnPeerRow: a suspended body waiting on a same-node
// peer's flag row (the shared-memory counter wait of a linear barrier or
// reduction) must be woken when that row changes, not only by flags landing
// on the waiting image's own row.
func TestSplitPhaseWaitOnPeerRow(t *testing.T) {
	for _, bw := range progressWorlds(t, 4) {
		w := bw.w
		t.Run(bw.backend, func(t *testing.T) {
			// Slot 0 of image 0's row is the counter the others wait on;
			// slot 1 counts the others' starts, so image 0 raises the
			// counter only once every body is suspended on it.
			fl := NewFlags(w, "peer-row", 2)
			w.Run(func(im *Image) {
				if im.Rank() == 0 {
					im.WaitFlagGE(fl, 0, 1, int64(w.NumImages()-1))
					im.Sleep(20 * Microsecond)
					im.NotifyAdd(fl, 0, 0, 1, ViaAuto)
					return
				}
				h := im.StartOp("peer", func() { im.WaitFlagGE(fl, 0, 0, 1) })
				if h.Done() {
					t.Errorf("rank %d: op completed before the root's flag", im.Rank())
				}
				im.NotifyAdd(fl, 0, 1, 1, ViaAuto)
				h.Wait()
			})
		})
	}
}

// TestProgressInsideOpBodyIsNoOp: Progress (and the progress polls of
// Compute) called from inside an operation body must not resume other
// operations; they advance only once the body yields or returns.
func TestProgressInsideOpBodyIsNoOp(t *testing.T) {
	for _, bw := range progressWorlds(t, 2) {
		w := bw.w
		t.Run(bw.backend, func(t *testing.T) {
			fl := NewFlags(w, "reentry", 1)
			w.Run(func(im *Image) {
				a := im.StartOp("a", func() { im.WaitFlagGE(fl, im.rank, 0, 1) })
				b := im.StartOp("b", func() {
					im.NotifyAdd(fl, im.rank, 0, 1, ViaAuto)
					im.Quiet()
					if got := im.Progress(); got != 2 || a.Done() {
						t.Errorf("rank %d: Progress inside a body = %d (a done %v), want 2 and a pending", im.Rank(), got, a.Done())
					}
					im.Compute(1e4)
					if a.Done() {
						t.Errorf("rank %d: Compute inside a body resumed another operation", im.Rank())
					}
				})
				if !b.Done() {
					t.Errorf("rank %d: body without waits did not complete at start", im.Rank())
				}
				a.Wait()
				if im.Pending() != 0 {
					t.Errorf("rank %d: %d operations pending after Wait", im.Rank(), im.Pending())
				}
			})
		})
	}
}

// TestEqualKeysRunInStartOrder: a second operation with the same key does
// not start until the first completes, even when waited first; different
// keys run concurrently.
func TestEqualKeysRunInStartOrder(t *testing.T) {
	w := newTestWorld(t, 1, 1)
	fl := NewFlags(w, "order", 2)
	w.Run(func(im *Image) {
		var order []string
		first := im.StartOp("k", func() {
			order = append(order, "first-start")
			im.WaitFlagGE(fl, 0, 0, 1)
			order = append(order, "first-end")
		})
		second := im.StartOp("k", func() { order = append(order, "second-start") })
		other := im.StartOp("other", func() { order = append(order, "other") })
		if second.Done() || !other.Done() {
			t.Errorf("second done %v (want false), other done %v (want true)", second.Done(), other.Done())
		}
		im.NotifyAdd(fl, 0, 0, 1, ViaAuto)
		second.Wait()
		if !first.Done() {
			t.Error("waiting the second operation did not complete the first")
		}
		want := []string{"first-start", "other", "first-end", "second-start"}
		if len(order) != len(want) {
			t.Fatalf("order %v, want %v", order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("order %v, want %v", order, want)
			}
		}
	})
}

// TestPendingOpsStoppedAtImageExit: an operation still suspended when its
// image's body returns is stopped, so its coroutine does not outlive the
// run.
func TestPendingOpsStoppedAtImageExit(t *testing.T) {
	for _, bw := range progressWorlds(t, 2) {
		w := bw.w
		t.Run(bw.backend, func(t *testing.T) {
			before := runtime.NumGoroutine()
			fl := NewFlags(w, "never", 1)
			w.Run(func(im *Image) {
				im.StartOp("never", func() { im.WaitFlagGE(fl, im.rank, 0, 1) })
			})
			waitGoroutines(t, before)
		})
	}
}

// waitGoroutines fails t unless the goroutine count returns to at most
// baseline (goroutines that already finished their work may still need a
// scheduling turn to exit).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > baseline; i++ {
		if i == 100000 {
			t.Fatalf("%d goroutines after the run, baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
}

// TestFinishedOpsReuseCoroutine: an operation that finishes parks its
// coroutine for the next one, so a loop of start-and-wait runs on one
// coroutine.
func TestFinishedOpsReuseCoroutine(t *testing.T) {
	w := newTestWorld(t, 1, 2)
	fl := NewFlags(w, "reuse", 1)
	w.Run(func(im *Image) {
		for ep := int64(1); ep <= 5; ep++ {
			h := im.StartOp("k", func() { im.WaitFlagGE(fl, im.rank, 0, ep) })
			im.NotifyAdd(fl, 1-im.rank, 0, 1, ViaAuto)
			h.Wait()
			if len(im.idle) != 1 {
				t.Fatalf("rank %d ep%d: %d idle coroutines, want 1", im.Rank(), ep, len(im.idle))
			}
		}
	})
}

// TestWaitInsideOpBodyPanics: Wait cannot make progress from inside a body
// (Progress does nothing there), so it fails loudly instead of spinning.
func TestWaitInsideOpBodyPanics(t *testing.T) {
	w := newTestWorld(t, 1, 1)
	fl := NewFlags(w, "nested", 1)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Wait inside an operation body did not panic")
		}
	}()
	w.Run(func(im *Image) {
		inner := im.StartOp("inner", func() { im.WaitFlagGE(fl, 0, 0, 1) })
		im.StartOp("outer", inner.Wait)
	})
}
