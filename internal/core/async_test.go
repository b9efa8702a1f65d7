package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/team"
	"cafteams/internal/topology"
)

// TestAsyncAgreementWithBlocking runs split-phase collectives next to
// blocking ones on the cross-validation shapes, in one image program, and
// checks bit-identical results.
func TestAsyncAgreementWithBlocking(t *testing.T) {
	for _, spec := range crossShapes {
		t.Run(spec, func(t *testing.T) {
			w := newWorld(t, spec)
			n := w.NumImages()
			w.Run(func(im *pgas.Image) {
				v := team.Initial(w, im)
				for ep := 0; ep < 3; ep++ {
					const elems = 33
					blocking := make([]float64, elems)
					async := make([]float64, elems)
					for i := range blocking {
						blocking[i] = float64(((im.Rank() + 1) * (i + 1 + ep)) % 256)
						async[i] = blocking[i]
					}
					RunAllreduce("rd", v, blocking, coll.Sum)
					h := StartAllreduce("rd", v, async, coll.Sum)
					im.Compute(5000) // overlap window: rounds progress in here
					h.Wait()
					for i := range blocking {
						if math.Float64bits(blocking[i]) != math.Float64bits(async[i]) {
							t.Errorf("ep%d elem%d: async %v != blocking %v", ep, i, async[i], blocking[i])
							return
						}
					}

					root := ep % n
					bbuf := make([]float64, elems)
					abuf := make([]float64, elems)
					if v.Rank == root {
						for i := range bbuf {
							bbuf[i] = float64(root*100 + i)
							abuf[i] = bbuf[i]
						}
					}
					RunBroadcast("2level", v, root, bbuf)
					hb := StartBroadcast("2level", v, root, abuf)
					im.Compute(5000)
					hb.Wait()
					for i := range bbuf {
						if bbuf[i] != abuf[i] {
							t.Errorf("bcast ep%d elem%d: async %v != blocking %v", ep, i, abuf[i], bbuf[i])
							return
						}
					}

					mine := []float64{float64(im.Rank()*10 + ep)}
					bout := make([]float64, n)
					aout := make([]float64, n)
					RunAllgather("ring", v, mine, bout)
					hg := StartAllgather("2level", v, mine, aout)
					im.Compute(5000)
					hg.Wait()
					for i := range bout {
						if bout[i] != aout[i] {
							t.Errorf("allgather ep%d elem%d: async %v != blocking %v", ep, i, aout[i], bout[i])
							return
						}
					}
				}
			})
		})
	}
}

// TestAsyncOverlapHidesCollectiveLatency is the subsystem's reason to exist:
// initiate + compute + wait must finish strictly sooner than compute +
// blocking collective, because the collective's rounds progress behind the
// compute.
func TestAsyncOverlapHidesCollectiveLatency(t *testing.T) {
	const elems = 128
	const flops = 3e4 // ~55 us of compute, comparable to the collective
	run := func(overlapped bool) sim.Time {
		w := newWorld(t, "16(2)")
		return w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			buf := make([]float64, elems)
			for i := range buf {
				buf[i] = float64(im.Rank() + i)
			}
			for ep := 0; ep < 5; ep++ {
				if overlapped {
					h := StartAllreduce("2level", v, buf, coll.Sum)
					im.Compute(flops)
					h.Wait()
				} else {
					im.Compute(flops)
					RunAllreduce("2level", v, buf, coll.Sum)
				}
			}
		})
	}
	blocking := run(false)
	overlapped := run(true)
	if overlapped >= blocking {
		t.Fatalf("overlap did not pay: overlapped %d ns >= blocking %d ns", overlapped, blocking)
	}
	t.Logf("blocking %d ns, overlapped %d ns (%.2fx)", blocking, overlapped,
		float64(blocking)/float64(overlapped))
}

// TestAsyncConcurrentHandles drives two different collectives in flight at
// once (a co_sum and a co_broadcast) plus a blocking barrier while they are
// pending — the progress-engine interleavings the examples rely on.
func TestAsyncConcurrentHandles(t *testing.T) {
	w := newWorld(t, "16(4)")
	n := w.NumImages()
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		p := Policy{Level: LevelAuto}
		sum := []float64{float64(im.Rank() + 1)}
		bc := []float64{0}
		if v.Rank == 2 {
			bc[0] = 42
		}
		h1 := StartAllreduce("2level", v, sum, coll.Sum)
		h2 := StartBroadcast("binomial", v, 2, bc)
		p.Barrier(v) // a blocking collective while two handles are pending
		im.Compute(20000)
		h2.Wait()
		h1.Wait()
		want := float64(n*(n+1)) / 2
		if sum[0] != want {
			t.Errorf("co_sum = %v, want %v", sum[0], want)
		}
		if bc[0] != 42 {
			t.Errorf("co_broadcast = %v, want 42", bc[0])
		}
		if im.Pending() != 0 {
			t.Errorf("%d operations still pending after waits", im.Pending())
		}
	})
}

// TestAsyncSameFamilyHandlesSerialize: two handles of the same kind on the
// same team started back to back run one after the other, in start order,
// and produce both results correctly.
func TestAsyncSameFamilyHandlesSerialize(t *testing.T) {
	w := newWorld(t, "12(3)")
	n := w.NumImages()
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		a := []float64{1}
		b := []float64{10}
		h1 := StartAllreduce("rd", v, a, coll.Sum)
		h2 := StartAllreduce("rd", v, b, coll.Sum)
		im.Compute(30000)
		h2.Wait() // waiting out of order must still drive h1 first
		h1.Wait()
		if a[0] != float64(n) {
			t.Errorf("first co_sum = %v, want %v", a[0], float64(n))
		}
		if b[0] != float64(10*n) {
			t.Errorf("second co_sum = %v, want %v", b[0], float64(10*n))
		}
	})
}

// TestBcast2RepeatedRootHandoffFlowControl: back-to-back broadcasts from
// the SAME non-leader root. The root's handoff has no downstream wait on
// the root's critical path, so without the handoff credit (flag slots 5/6)
// episode e+2's payload overwrites episode e's unconsumed same-parity
// landing region at the root's node leader. The split-phase case ("nb-2level")
// starts every episode before waiting any, so the root runs ahead as far as
// the credit lets it; the blocking case hits the same edge when the caller
// loops. Both must deliver every episode's payload intact.
func TestBcast2RepeatedRootHandoffFlowControl(t *testing.T) {
	const episodes = 5
	for _, alg := range []string{"2level", "nb-2level"} {
		t.Run(alg, func(t *testing.T) {
			name := alg
			w := newWorld(t, "16(4)")
			w.Run(func(im *pgas.Image) {
				v := team.Initial(w, im)
				const root = 1 // non-leader (leader of node 0 is rank 0)
				if name == "nb-2level" {
					// Initiate every episode before waiting any: the
					// worst-case pile-up.
					bufs := make([][]float64, episodes)
					handles := make([]*Handle, episodes)
					for ep := 0; ep < episodes; ep++ {
						bufs[ep] = []float64{0}
						if v.Rank == root {
							bufs[ep][0] = float64(111 * (ep + 1))
						}
						handles[ep] = StartBroadcast("2level", v, root, bufs[ep])
					}
					for ep := 0; ep < episodes; ep++ {
						handles[ep].Wait()
						if want := float64(111 * (ep + 1)); bufs[ep][0] != want {
							t.Errorf("rank %d ep%d: got %v, want %v", v.Rank, ep, bufs[ep][0], want)
						}
					}
					return
				}
				for ep := 0; ep < episodes; ep++ {
					buf := []float64{0}
					if v.Rank == root {
						buf[0] = float64(111 * (ep + 1))
					}
					RunBroadcast(name, v, root, buf)
					if want := float64(111 * (ep + 1)); buf[0] != want {
						t.Errorf("rank %d ep%d: got %v, want %v", v.Rank, ep, buf[0], want)
					}
				}
			})
		})
	}
}

// TestAsyncTestPolling exercises the Test/Done probes.
func TestAsyncTestPolling(t *testing.T) {
	w := newWorld(t, "8(2)")
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		buf := []float64{1}
		h := StartAllreduce("2level", v, buf, coll.Sum)
		for !h.Test() {
			im.Sleep(500 * sim.Nanosecond)
		}
		if !h.Done() {
			t.Error("Done() false after Test() returned true")
		}
		if buf[0] != 8 {
			t.Errorf("co_sum = %v, want 8", buf[0])
		}
	})
}

// TestPolicyAsyncRunsCustomAlgorithmsSplitPhase: a tuned custom algorithm
// runs split-phase like a built-in — the handle is still pending after the
// start while the body waits on its peers — and agrees bitwise with its
// blocking run.
func TestPolicyAsyncRunsCustomAlgorithmsSplitPhase(t *testing.T) {
	// The registry sweeps that run after this test list the registration
	// under this name too, so it stays stable.
	RegisterAllreduce("test-async-fallback", func(v *team.View, buf []float64, op coll.Op[float64]) {
		coll.AllreduceRD(v, buf, op, pgas.ViaConduit)
	})
	w := newWorld(t, "8(2)")
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		p := Policy{Level: LevelAuto, Tuning: Tuning{Allreduce: "test-async-fallback"}}
		blocking := []float64{float64(im.Rank() + 1)}
		split := []float64{blocking[0]}
		PolicyAllreduce(p, v, blocking, coll.Sum)
		h := PolicyAllreduceAsync(p, v, split, coll.Sum)
		if h.Done() {
			t.Errorf("rank %d: custom split-phase allreduce completed at start", im.Rank())
		}
		im.Compute(5000)
		h.Wait()
		if math.Float64bits(split[0]) != math.Float64bits(blocking[0]) || split[0] != 36 {
			t.Errorf("rank %d: split-phase %v, blocking %v, want 36", im.Rank(), split[0], blocking[0])
		}
	})
}

// TestStartUnknownAsyncAlgorithmPanics pins the error surface.
func TestStartUnknownAsyncAlgorithmPanics(t *testing.T) {
	w := newWorld(t, "4(1)")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("StartAllreduce with an unregistered name did not panic")
		}
		if s := fmt.Sprint(r); !strings.Contains(s, "no-such-algorithm") {
			t.Fatalf("panic %q does not name the algorithm", s)
		}
	}()
	w.Run(func(im *pgas.Image) {
		v := team.Initial(w, im)
		StartAllreduce("no-such-algorithm", v, []float64{1}, coll.Sum)
	})
}

// TestBlockingSameKindWhileSplitPhasePending: a blocking collective of the
// same kind on the same team, called while a split-phase one is pending,
// first completes the pending one (the two share per-image episode state),
// on both backends.
func TestBlockingSameKindWhileSplitPhasePending(t *testing.T) {
	for _, alg := range []string{"rd", "2level"} {
		for _, backend := range confBackends {
			alg := alg
			sc := confScenario{nodes: 3, perNode: 4, place: topology.PlaceBlock, backend: backend}
			t.Run(alg+"/"+backend, func(t *testing.T) {
				w := sc.world(t)
				n := float64(w.NumImages())
				w.Run(func(im *pgas.Image) {
					v := team.Initial(w, im)
					for ep := 0; ep < 3; ep++ {
						a := []float64{1}
						b := []float64{10}
						h := StartAllreduce(alg, v, a, coll.Sum)
						RunAllreduce(alg, v, b, coll.Sum)
						if !h.Done() {
							t.Errorf("rank %d: blocking allreduce ran ahead of the pending one", im.Rank())
						}
						h.Wait()
						if a[0] != n || b[0] != 10*n {
							t.Errorf("rank %d ep%d: split %v blocking %v, want %v and %v", im.Rank(), ep, a[0], b[0], n, 10*n)
						}
					}
				})
			})
		}
	}
}

// TestSplitPhaseLinearAllreduceWaitsOnPeerRow: the linear allreduce's
// members wait on the root's shared-memory counter, a flag in another
// image's row; run split-phase, those suspended waits must still be woken.
func TestSplitPhaseLinearAllreduceWaitsOnPeerRow(t *testing.T) {
	for _, spec := range crossShapes {
		t.Run(spec, func(t *testing.T) {
			w := newWorld(t, spec)
			n := w.NumImages()
			w.Run(func(im *pgas.Image) {
				v := team.Initial(w, im)
				for ep := 0; ep < 3; ep++ {
					buf := []float64{float64(im.Rank() + ep)}
					h := StartAllreduce("linear", v, buf, coll.Sum)
					im.Compute(5000)
					h.Wait()
					if want := float64(n*(n-1)/2 + n*ep); buf[0] != want {
						t.Errorf("rank %d ep%d: %v, want %v", im.Rank(), ep, buf[0], want)
					}
				}
			})
		})
	}
}
