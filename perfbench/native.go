package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"cafteams/caf"
)

// nativeSpec is the placement of every native-apps world.
const nativeSpec = "16(4)"

func nativeConfig() caf.Config {
	return caf.Config{Spec: nativeSpec, Backend: caf.BackendNative, Tuning: caf.AutoTuning()}
}

// Application sizes. The CG grid is cgNX columns by cgRows rows per image;
// the solve stops at ||r|| <= cgTol·||b||.
const (
	cgNX       = 32
	cgRows     = 4
	cgTol      = 1e-6
	cgMaxIter  = 1000
	heatW      = 32
	heatH      = 8
	heatSweeps = 40
	loopIters  = 40
	loopElems  = 8
)

// nativeApp is one app variant of native-apps: a whole caf.Run world.
type nativeApp struct {
	name    string
	overlap bool
	run     func(in *inputs, overlap bool, probe *callProbe) (appResult, error)
}

var nativeAppList = []nativeApp{
	{"cg-blocking", false, runCG},
	{"cg-overlapped", true, runCG},
	{"heat2d-blocking", false, runHeat2D},
	{"heat2d-overlapped", true, runHeat2D},
	{"loop-blocking", false, runLoop},
	{"loop-overlapped", true, runLoop},
}

// appResult is what one app run observed.
type appResult struct {
	rep      caf.Report
	episodes int64   // team-wide collective episodes
	solveMS  float64 // CG only: wall ms of the solve loop
	bad      int64   // outputs that differ from the serial reference
	note     string
}

// callProbe collects per-call wall latencies by caf op, per image, so
// images never share a slice.
type callProbe struct {
	rec    *recorder
	parent int32
	byOp   []map[string][]float64 // [image-1][op] µs
}

func newCallProbe(images int, rec *recorder, parent int32) *callProbe {
	p := &callProbe{rec: rec, parent: parent, byOp: make([]map[string][]float64, images)}
	for i := range p.byOp {
		p.byOp[i] = map[string][]float64{}
	}
	return p
}

// time runs one blocking caf call and records its wall latency.
func (p *callProbe) time(im *caf.Image, op string, fn func()) {
	s := time.Now()
	fn()
	e := time.Now()
	p.byOp[im.ThisImage()-1][op] = append(p.byOp[im.ThisImage()-1][op], float64(e.Sub(s))/1e3)
	if p.rec != nil {
		p.rec.add("caf."+op, p.parent, p.rec.since(s), p.rec.since(e), -1, -1)
	}
}

// cgReference is the serial CG solve of the same system: its iteration
// count bounds the distributed solve's.
type cgReference struct {
	once  sync.Once
	iters int
	b     []float64
}

var cgRefs sync.Map // seed -> *cgReference

func cgRef(in *inputs, images int) *cgReference {
	v, _ := cgRefs.LoadOrStore(fmt.Sprint(in.seed, images), &cgReference{})
	ref := v.(*cgReference)
	ref.once.Do(func() {
		rows := cgRows * images
		ref.b = make([]float64, rows*cgNX)
		for i := range ref.b {
			ref.b[i] = in.val(streamApp, 1, i/cgNX, i%cgNX)
		}
		ref.iters = serialCG(ref.b, rows, cgNX)
	})
	return ref
}

// laplace applies the 5-point Laplacian with zero Dirichlet boundary.
func laplace(p []float64, rows, cols int, out []float64) {
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := 4 * p[r*cols+c]
			if r > 0 {
				v -= p[(r-1)*cols+c]
			}
			if r < rows-1 {
				v -= p[(r+1)*cols+c]
			}
			if c > 0 {
				v -= p[r*cols+c-1]
			}
			if c < cols-1 {
				v -= p[r*cols+c+1]
			}
			out[r*cols+c] = v
		}
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// serialCG returns the iteration count of the serial CG solve of A x = b.
func serialCG(b []float64, rows, cols int) int {
	n := len(b)
	x, r, p, ap := make([]float64, n), append([]float64(nil), b...), append([]float64(nil), b...), make([]float64, n)
	rr := dot(r, r)
	stop := cgTol * cgTol * rr
	it := 0
	for ; it < cgMaxIter && rr > stop; it++ {
		laplace(p, rows, cols, ap)
		alpha := rr / dot(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rrNew := dot(r, r)
		for i := range p {
			p[i] = r[i] + rrNew/rr*p[i]
		}
		rr = rrNew
	}
	return it
}

// runCG solves the 2-D Laplace system row-partitioned over the images: per
// iteration a halo exchange, two sync alls and two co_sum dot products; in
// overlapped mode the r·r co_sum is split-phase and completes after the x
// update. The solve must take the serial reference's iteration count (±1
// for rounding order) and reach the tolerance on the true residual.
func runCG(in *inputs, overlap bool, probe *callProbe) (appResult, error) {
	images := 16
	ref := cgRef(in, images)
	rows := cgRows * images
	xAll := make([]float64, rows*cgNX)
	iters := make([]int, images)
	var solveNS int64
	rep, err := caf.Run(nativeConfig(), func(im *caf.Image) {
		me, n := im.ThisImage(), im.NumImages()
		w, h := cgNX, cgRows
		p := im.NewCoarray("p", (h+2)*w)
		pL := p.Local(im)
		x, r, ap := make([]float64, h*w), make([]float64, h*w), make([]float64, h*w)
		off := (me - 1) * h * w
		copy(r, ref.b[off:off+h*w])
		copy(pL[w:(h+1)*w], r)
		probe.time(im, "sync_all", im.SyncAll)
		start := time.Now()
		sum := func(v []float64) { probe.time(im, "co_sum", func() { im.CoSum(v) }) }
		v := []float64{dot(r, r)}
		sum(v)
		rr := v[0]
		stop := cgTol * cgTol * rr
		it := 0
		for ; it < cgMaxIter && rr > stop; it++ {
			if me > 1 {
				p.Put(im, me-1, (h+1)*w, pL[w:2*w])
			}
			if me < n {
				p.Put(im, me+1, 0, pL[h*w:(h+1)*w])
			}
			im.SyncMemory()
			probe.time(im, "sync_all", im.SyncAll)
			for rr_ := 1; rr_ <= h; rr_++ {
				for c := 0; c < w; c++ {
					s := 4 * pL[rr_*w+c]
					s -= pL[(rr_-1)*w+c]
					s -= pL[(rr_+1)*w+c]
					if c > 0 {
						s -= pL[rr_*w+c-1]
					}
					if c < w-1 {
						s -= pL[rr_*w+c+1]
					}
					ap[(rr_-1)*w+c] = s
				}
			}
			v[0] = dot(pL[w:(h+1)*w], ap)
			sum(v)
			alpha := rr / v[0]
			rrLocal := 0.0
			for i := range r {
				r[i] -= alpha * ap[i]
				rrLocal += r[i] * r[i]
			}
			v2 := []float64{rrLocal}
			var pending *caf.Handle
			if overlap {
				pending = im.CoSumAsync(v2)
			}
			for i := range x {
				x[i] += alpha * pL[w+i]
			}
			if overlap {
				pending.Wait()
			} else {
				sum(v2)
			}
			beta := v2[0] / rr
			rr = v2[0]
			for i := range r {
				pL[w+i] = r[i] + beta*pL[w+i]
			}
			probe.time(im, "sync_all", im.SyncAll)
		}
		if me == 1 {
			solveNS = int64(time.Since(start))
		}
		iters[me-1] = it
		copy(xAll[off:off+h*w], x)
	})
	res := appResult{rep: rep, solveMS: float64(solveNS) / 1e6}
	if err != nil {
		return res, err
	}
	it := iters[0]
	res.episodes = int64(2 + 4*it) // initial sync all and co_sum, then 4 per iteration
	ap := make([]float64, len(xAll))
	laplace(xAll, rows, cgNX, ap)
	var rn, bn float64
	for i := range ap {
		d := ref.b[i] - ap[i]
		rn += d * d
		bn += ref.b[i] * ref.b[i]
	}
	want := ref.iters
	if in.corrupt {
		want += 5
	}
	for _, got := range iters {
		if got != it || got < want-1 || got > want+1 {
			res.bad++
			res.note = fmt.Sprintf("iterations %v, serial reference %d", iters, want)
			break
		}
	}
	if math.Sqrt(rn) > 10*cgTol*math.Sqrt(bn) {
		res.bad++
		res.note = fmt.Sprintf("true residual %.3e over tolerance (||b|| %.3e)", math.Sqrt(rn), math.Sqrt(bn))
	}
	return res, nil
}

// runHeat2D is a Jacobi sweep on a row-partitioned plate: halo puts, sync
// all, the stencil, and a residual co_max that overlapped mode completes one
// sweep late. Every image's co_max result must equal the serial max of the
// local residuals.
func runHeat2D(in *inputs, overlap bool, probe *callProbe) (appResult, error) {
	images := 16
	local := make([][]float64, heatSweeps) // [sweep][image]
	got := make([][]float64, heatSweeps)
	for s := range local {
		local[s] = make([]float64, images)
		got[s] = make([]float64, images)
	}
	rep, err := caf.Run(nativeConfig(), func(im *caf.Image) {
		me, n := im.ThisImage(), im.NumImages()
		w, h := heatW, heatH
		cur := im.NewCoarray("cur", (h+2)*w)
		curL := cur.Local(im)
		next := make([]float64, (h+2)*w)
		for r := 1; r <= h; r++ {
			curL[r*w] = in.val(streamApp, 2, me, r) + 10 // fixed left boundary
		}
		copy(next, curL)
		probe.time(im, "sync_all", im.SyncAll)
		res := []float64{0}
		var pending *caf.Handle
		pendingSweep := -1
		for s := 0; s < heatSweeps; s++ {
			if me > 1 {
				cur.Put(im, me-1, (h+1)*w, curL[w:2*w])
			}
			if me < n {
				cur.Put(im, me+1, 0, curL[h*w:(h+1)*w])
			}
			im.SyncMemory()
			probe.time(im, "sync_all", im.SyncAll)
			diff := 0.0
			for r := 1; r <= h; r++ {
				for c := 1; c < w-1; c++ {
					v := 0.25 * (curL[(r-1)*w+c] + curL[(r+1)*w+c] + curL[r*w+c-1] + curL[r*w+c+1])
					next[r*w+c] = v
					diff = math.Max(diff, math.Abs(v-curL[r*w+c]))
				}
			}
			if pending != nil {
				pending.Wait()
				got[pendingSweep][me-1] = res[0]
				pending = nil
			}
			local[s][me-1] = diff
			res[0] = diff
			if overlap {
				pending, pendingSweep = im.CoMaxAsync(res), s
			} else {
				probe.time(im, "co_max", func() { im.CoMax(res) })
				got[s][me-1] = res[0]
			}
			probe.time(im, "sync_all", im.SyncAll)
			copy(curL[w:(h+1)*w], next[w:(h+1)*w])
		}
		if pending != nil {
			pending.Wait()
			got[pendingSweep][me-1] = res[0]
		}
	})
	res := appResult{rep: rep, episodes: 1 + 3*heatSweeps}
	if err != nil {
		return res, err
	}
	for s := range local {
		want := local[s][0]
		for _, d := range local[s] {
			want = math.Max(want, d)
		}
		if in.corrupt {
			want++
		}
		for _, g := range got[s] {
			if g != want {
				res.bad++
				res.note = fmt.Sprintf("sweep %d: co_max %v, serial max %v", s, g, want)
				break
			}
		}
	}
	return res, nil
}

// runLoop repeats co_sum, co_broadcast, co_allgather and sync all on
// integer vectors; overlapped mode starts the three collectives split-phase
// and then waits for each. Every output is compared with its serial
// reference.
func runLoop(in *inputs, overlap bool, probe *callProbe) (appResult, error) {
	const images = 16
	x := func(img, it, i int) float64 { return in.val(streamApp, 3, img*1000+it, i) }
	sumWant := make([][]float64, loopIters)
	for it := range sumWant {
		sumWant[it] = make([]float64, loopElems)
		for img := 1; img <= images; img++ {
			for i := 0; i < loopElems; i++ {
				sumWant[it][i] += x(img, it, i)
			}
		}
		if in.corrupt {
			sumWant[it][0]++
		}
	}
	bad := make([]int64, images)
	rep, err := caf.Run(nativeConfig(), func(im *caf.Image) {
		me, n := im.ThisImage(), im.NumImages()
		sum := make([]float64, loopElems)
		bc := make([]float64, loopElems)
		mine := make([]float64, 2)
		all := make([]float64, 2*n)
		for it := 0; it < loopIters; it++ {
			src := 1 + in.pick(streamApp, it, n)
			for i := range sum {
				sum[i] = x(me, it, i)
				bc[i] = sentinel
				if me == src {
					bc[i] = x(src, it, i)
				}
			}
			mine[0], mine[1] = float64(me), x(me, it, 0)
			if overlap {
				hs := im.CoSumAsync(sum)
				hb := im.CoBroadcastAsync(bc, src)
				ha := im.CoAllgatherAsync(mine, all)
				hs.Wait()
				hb.Wait()
				ha.Wait()
			} else {
				probe.time(im, "co_sum", func() { im.CoSum(sum) })
				probe.time(im, "co_broadcast", func() { im.CoBroadcast(bc, src) })
				probe.time(im, "co_allgather", func() { im.CoAllgather(mine, all) })
			}
			probe.time(im, "sync_all", im.SyncAll)
			ok := equal(sum, sumWant[it])
			for i := range bc {
				ok = ok && bc[i] == x(src, it, i)
			}
			for j := 0; j < n; j++ {
				ok = ok && all[2*j] == float64(j+1) && all[2*j+1] == x(j+1, it, 0)
			}
			if !ok {
				bad[me-1]++
			}
		}
	})
	res := appResult{rep: rep, episodes: 4 * loopIters}
	for _, b := range bad {
		res.bad = max(res.bad, b)
	}
	if res.bad > 0 {
		res.note = fmt.Sprintf("%d iteration(s) differ from the serial reference", res.bad)
	}
	return res, err
}

// nativeApps: the CG solve, heat2d and a collective loop through the caf
// API on real goroutines, each blocking and overlapped.
var nativeApps = &workload{
	setup: func(in *inputs, t *tally) (int, error) {
		var bad atomic.Bool
		_, err := caf.Run(nativeConfig(), func(im *caf.Image) {
			im.NewCoarray("warm", 64)
			im.SyncAll()
			v := []float64{float64(im.ThisImage())}
			im.CoSum(v)
			b := []float64{float64(im.ThisImage())}
			im.CoBroadcast(b, 1)
			all := make([]float64, im.NumImages())
			im.CoAllgather(b, all)
			m := []float64{float64(im.ThisImage())}
			im.CoMax(m)
			n := float64(im.NumImages())
			if v[0] != n*(n+1)/2 || b[0] != 1 || all[0] != 1 || m[0] != n || in.corrupt {
				bad.Store(true)
			}
		})
		t.attempted += 4
		if err != nil {
			t.fail(4, "native warm-up: %v", err)
		} else if bad.Load() {
			t.fail(1, "native warm-up: outputs differ from the serial reference")
		}
		return 16, nil
	},
	pass: func(in *inputs, t *tally, rec *recorder) error {
		ws := rec.begin("workload", 0)
		defer rec.end(ws)
		for _, app := range nativeAppList {
			cs := rec.begin("cell", ws)
			rs := rec.begin("caf.Run", cs)
			probe := newCallProbe(16, rec, rs)
			if !rec.on {
				probe.rec = nil
			}
			t0 := time.Now()
			res, err := app.run(in, app.overlap, probe)
			host := time.Since(t0).Seconds()
			rec.end(rs)
			rec.end(cs)
			t.attempted += max(res.episodes, 1)
			if err != nil {
				t.fail(max(res.episodes, 1), "%s: %v", app.name, err)
				continue
			}
			if res.bad > 0 {
				t.fail(res.bad, "%s: %s", app.name, res.note)
			}
			t.episodes += res.episodes
			t.jobs++
			t.hostTimed += host
			t.imageWorlds += 16
			t.runUS = append(t.runUS, float64(res.rep.Elapsed)/1e3)
			if app.name == "cg-blocking" {
				t.solveMS = append(t.solveMS, res.solveMS)
			}
			t.appNS[app.name] = append(t.appNS[app.name], float64(res.rep.Elapsed))
			for _, ops := range probe.byOp {
				for _, op := range cafOps {
					if t.opUS[op] == nil {
						t.opUS[op] = &sample{}
					}
					t.callUS.add(ops[op]...)
					t.opUS[op].add(ops[op]...)
				}
			}
			t.observe(cellStat{Key: app.name, Kind: "", Auto: true, Images: 16, Episodes: res.episodes,
				ModelNS: int64(res.rep.Elapsed), IntraMsgs: res.rep.Stats.IntraMsgs, InterMsgs: res.rep.Stats.InterMsgs,
				IntraBytes: res.rep.Stats.IntraBytes, InterBytes: res.rep.Stats.InterBytes})
		}
		return nil
	},
	finish: func(t *tally, v map[string]float64) {
		for _, op := range cafOps {
			if s := t.opUS[op]; s != nil {
				v["caf."+op+".us_p50"] = percentile(s.xs, 50)
			}
		}
		cg := median(t.appNS["cg-blocking"]) / median(t.appNS["cg-overlapped"])
		heat := median(t.appNS["heat2d-blocking"]) / median(t.appNS["heat2d-overlapped"])
		v["caf.overlap_ratio"] = geomean([]float64{cg, heat})
	},
}
