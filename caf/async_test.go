package caf

import (
	"math"
	"testing"
)

// TestAsyncIntrinsicsAgreeWithBlocking checks each Async intrinsic against
// its blocking twin at the public API level, with compute overlapping the
// in-flight operation.
func TestAsyncIntrinsicsAgreeWithBlocking(t *testing.T) {
	cfg := Config{Spec: "16(2)"}
	type result struct {
		sum, max, min []float64
		bc            []float64
		gather        []float64
		isum          []int64
	}
	run := func(async bool) []result {
		results := make([]result, 16)
		_, err := Run(cfg, func(im *Image) {
			me := im.ThisImage()
			n := im.NumImages()
			sum := []float64{float64(me), float64(me * 2)}
			max := []float64{float64(me)}
			min := []float64{float64(me)}
			bc := []float64{0}
			if me == 3 {
				bc[0] = 99
			}
			mine := []float64{float64(me * 10)}
			gather := make([]float64, n)
			isum := []int64{int64(me)}
			if async {
				h1 := im.CoSumAsync(sum)
				im.Compute(10000)
				h1.Wait()
				h2 := im.CoMaxAsync(max)
				h3 := im.CoMinAsync(min)
				im.Compute(10000)
				h3.Wait()
				h2.Wait()
				hb := im.CoBroadcastAsync(bc, 3)
				hg := im.CoAllgatherAsync(mine, gather)
				hi := CoSumAsyncT(im, isum)
				im.Compute(10000)
				hb.Wait()
				hg.Wait()
				hi.Wait()
			} else {
				im.CoSum(sum)
				im.CoMax(max)
				im.CoMin(min)
				im.CoBroadcast(bc, 3)
				im.CoAllgather(mine, gather)
				CoSumT(im, isum)
			}
			results[me-1] = result{sum: sum, max: max, min: min, bc: bc, gather: gather, isum: isum}
		})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	blocking := run(false)
	async := run(true)
	for r := range blocking {
		b, a := blocking[r], async[r]
		for i := range b.sum {
			if math.Float64bits(b.sum[i]) != math.Float64bits(a.sum[i]) {
				t.Errorf("rank %d co_sum[%d]: async %v != blocking %v", r, i, a.sum[i], b.sum[i])
			}
		}
		if b.max[0] != a.max[0] || b.min[0] != a.min[0] {
			t.Errorf("rank %d co_max/co_min: async (%v,%v) != blocking (%v,%v)",
				r, a.max[0], a.min[0], b.max[0], b.min[0])
		}
		if b.bc[0] != a.bc[0] {
			t.Errorf("rank %d co_broadcast: async %v != blocking %v", r, a.bc[0], b.bc[0])
		}
		for i := range b.gather {
			if b.gather[i] != a.gather[i] {
				t.Errorf("rank %d co_allgather[%d]: async %v != blocking %v", r, i, a.gather[i], b.gather[i])
			}
		}
		if b.isum[0] != a.isum[0] {
			t.Errorf("rank %d int64 co_sum: async %v != blocking %v", r, a.isum[0], b.isum[0])
		}
	}
}

// TestAsyncOverlapReducesElapsed: the public-API version of the overlap
// guarantee — compute issued between initiate and wait hides collective
// latency, so the async run finishes strictly sooner.
func TestAsyncOverlapReducesElapsed(t *testing.T) {
	run := func(async bool) int64 {
		// Pinned to the sim backend: the strict inequality is a modeled-
		// timing property; native wall clocks are too noisy for it.
		rep, err := Run(Config{Spec: "32(4)", Backend: BackendSim}, func(im *Image) {
			buf := make([]float64, 256)
			for i := range buf {
				buf[i] = float64(im.ThisImage() + i)
			}
			for ep := 0; ep < 8; ep++ {
				if async {
					h := im.CoSumAsync(buf)
					im.Compute(4e4)
					h.Wait()
				} else {
					im.Compute(4e4)
					im.CoSum(buf)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Elapsed
	}
	blocking := run(false)
	overlapped := run(true)
	if overlapped >= blocking {
		t.Fatalf("overlap did not pay at the caf level: overlapped %d ns >= blocking %d ns", overlapped, blocking)
	}
	t.Logf("blocking %d ns, overlapped %d ns (%.2fx)", blocking, overlapped,
		float64(blocking)/float64(overlapped))
}

// TestAsyncInsideChangeTeam: the async intrinsics follow the current team
// like their blocking twins.
func TestAsyncInsideChangeTeam(t *testing.T) {
	_, err := Run(Config{Spec: "16(2)"}, func(im *Image) {
		half := int64(1)
		if im.ThisImage() > 8 {
			half = 2
		}
		tm := im.FormTeam(half)
		im.ChangeTeam(tm, func() {
			v := []float64{1}
			h := im.CoSumAsync(v)
			im.Compute(5000)
			h.Wait()
			if v[0] != 8 {
				t.Errorf("team co_sum = %v, want 8 (per-half team)", v[0])
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAsyncTunedAlgorithm: Tuning pins the async path like the blocking
// path — an algorithm selected through WithAlgorithm runs on both.
func TestAsyncTunedAlgorithm(t *testing.T) {
	cfg := Config{Spec: "8(2)"}.WithAlgorithm(KindAllreduce, "rd")
	_, err := Run(cfg, func(im *Image) {
		v := []float64{1}
		im.CoSum(v)
		if v[0] != 8 {
			t.Errorf("tuned blocking co_sum = %v, want 8", v[0])
		}
		h := im.CoSumAsync(v)
		h.Wait()
		if v[0] != 64 {
			t.Errorf("tuned async co_sum = %v, want 64", v[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
