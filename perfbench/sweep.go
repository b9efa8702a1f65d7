package main

import (
	"fmt"
	"hash/crc32"
	"runtime/debug"
	"time"

	"cafteams/internal/core"
	"cafteams/internal/machine"
	"cafteams/internal/pgas"
	"cafteams/internal/sim"
	"cafteams/internal/team"
	"cafteams/internal/topology"
	"cafteams/internal/trace"
)

// Team selections a sweep cell runs its collective on.
const (
	teamWorld = "world"
	teamNode  = "node" // FormByNode: one team per node
	teamRow   = "row"  // Grid rows
	teamCol   = "col"  // Grid columns
)

// sweepCell is one world of a sim sweep: warm episodes of one algorithm,
// a world-wide barrier, then timed episodes.
type sweepCell struct {
	shape string
	topo  *topology.Topology
	team  string
	kind  core.Kind
	alg   string
	vec   string // "small" or "large"
	elems int
	warm  int
	timed int
	// gridQ is the column count of the row/column grid teams.
	gridQ int
}

func (c sweepCell) key() string {
	return fmt.Sprintf("%s|%s|%s/%s|%s", c.shape, c.team, c.kind, c.alg, c.vec)
}

// group names the cells whose algorithms compete for one job: same kind,
// shape, team and vector.
func (c sweepCell) group() string {
	return fmt.Sprintf("%s|%s|%s|%s", c.kind, c.shape, c.team, c.vec)
}

// cellRun is what one image-parallel cell run observed from outside.
type cellRun struct {
	stat       cellStat
	hostTimed  float64
	hostWorld  float64
	hostForm   float64
	timedEvent int64
	callUS     []float64 // per image per timed episode
	doneUS     []float64 // per image: when it finished, from the world's start
	badEp      map[int]bool
	err        error
}

// runSweepCell builds the cell's world and runs it, recording spans under
// parent when rec is enabled.
func runSweepCell(in *inputs, c sweepCell, rec *recorder, parent int32) cellRun {
	var r cellRun
	r.badEp = map[int]bool{}
	cellSpan := rec.begin("cell", parent)
	defer rec.end(cellSpan)

	t0 := time.Now()
	ws := rec.begin("pgas.world", cellSpan)
	env := sim.NewEnv()
	stats := trace.New()
	w, err := pgas.NewWorld(env, machine.PaperCluster(), c.topo, stats)
	rec.end(ws)
	r.hostWorld = time.Since(t0).Seconds()
	if err != nil {
		r.err = err
		return r
	}

	var (
		started                bool
		tStart                 time.Time
		simStart               int64
		snap0                  trace.Snapshot
		ev0                    int64
		formFirst, formLast    time.Time
		formModel              int64
		refs                   = map[int64][]float64{}
		cellID                 = int(crc32.ChecksumIEEE([]byte(c.key())) >> 8)
		rootSel                = in.pick(streamRoot, cellID, 1<<20)
		runSpan                int32
		kindName               = c.kind.String()
		episodeName            = "core." + kindName
		nImages                = c.topo.NumImages()
		formSpans, formSpanEnd []int64
	)
	body := func(im *pgas.Image) {
		v0 := team.Initial(w, im)
		v := v0
		if c.team != teamWorld {
			hs, ss := time.Now(), im.Now()
			if formFirst.IsZero() || hs.Before(formFirst) {
				formFirst = hs
			}
			switch c.team {
			case teamNode:
				v = v0.FormByNode()
			case teamRow, teamCol:
				row, col, err := v0.Grid(v0.NumImages()/c.gridQ, c.gridQ)
				if err != nil {
					panic(err)
				}
				v = row
				if c.team == teamCol {
					v = col
				}
			}
			formModel += im.Now() - ss
			formSpans = append(formSpans, ss)
			formSpanEnd = append(formSpanEnd, im.Now())
			if he := time.Now(); he.After(formLast) {
				formLast = he
			}
		}
		op := newCollOp(in, c.kind, c.alg, v, c.elems, rootSel, refs)
		skew := func(e int) {
			im.Compute(float64(in.hash(streamSkew, cellID, im.Rank(), e) % (maxSkewFlops + 1)))
		}
		for e := 0; e < c.warm; e++ {
			skew(e)
			op.run()
			if !op.ok() {
				r.badEp[e] = true
			}
		}
		core.RunBarrier("dissemination", v0)
		if !started {
			started = true
			tStart = time.Now()
			simStart = im.Now()
			snap0 = stats.Snapshot()
			ev0 = env.Events()
		}
		for e := 0; e < c.timed; e++ {
			skew(c.warm + e)
			s := im.Now()
			op.run()
			d := im.Now() - s
			r.callUS = append(r.callUS, float64(d)/1e3)
			rec.add(episodeName, runSpan, -1, -1, s, s+d)
			if !op.ok() {
				r.badEp[c.warm+e] = true
			}
		}
		r.doneUS = append(r.doneUS, float64(im.Now())/1e3)
	}
	func() {
		defer func() {
			if p := recover(); p != nil {
				r.err = fmt.Errorf("%v", p)
			}
		}()
		runSpan = rec.begin("world.run", cellSpan)
		end := w.Run(body)
		rec.setSim(runSpan, 0, end)
		rec.end(runSpan)
		tEnd := time.Now()
		r.hostTimed = tEnd.Sub(tStart).Seconds()
		sn := stats.Snapshot().Diff(snap0)
		r.timedEvent = env.Events() - ev0
		r.stat = cellStat{
			Key: c.key(), Kind: kindName, Auto: c.alg == core.AlgAuto, Group: c.group(),
			Images: nImages, Episodes: int64(c.timed), ModelNS: end - simStart,
			Events: env.Events(), IntraMsgs: sn.IntraMsgs, InterMsgs: sn.InterMsgs,
			IntraBytes: sn.IntraBytes, InterBytes: sn.InterBytes, det: true,
		}
		if c.team != teamWorld {
			r.stat.FormModelNS = formModel / int64(nImages)
			r.hostForm = formLast.Sub(formFirst).Seconds()
			fs := rec.add("team.form", runSpan, rec.since(formFirst), rec.since(formLast), -1, -1)
			for i := range formSpans {
				rec.add("team.form.image", fs, -1, -1, formSpans[i], formSpanEnd[i])
			}
		}
	}()
	return r
}

// record folds one cell run into the tally.
func (t *tally) recordSweepCell(c sweepCell, r cellRun) {
	eps := int64(c.warm + c.timed)
	t.attempted += eps
	if r.err != nil {
		t.fail(eps, "%s: %v", c.key(), r.err)
		return
	}
	if n := len(r.badEp); n > 0 {
		t.fail(int64(n), "%s: %d episode(s) differ from the serial reference", c.key(), n)
	}
	t.episodes += int64(c.timed)
	t.jobs++
	t.hostTimed += r.hostTimed
	t.imageWorlds += int64(c.topo.NumImages())
	for name, v := range map[string]float64{
		"coll_us_p50":       percentile(r.callUS, 50),
		"coll_us_p90":       percentile(r.callUS, 90),
		"turnaround_us_p50": percentile(r.doneUS, 50),
		"turnaround_us_p99": percentile(r.doneUS, 99),
		"solve_ms_p50":      percentile(r.doneUS, 50) / 1e3,
	} {
		t.cellPct[name] = append(t.cellPct[name], v)
	}
	t.hostByKind[r.stat.Kind] += r.hostTimed
	t.epByKind[r.stat.Kind] += int64(c.timed)
	t.events += r.timedEvent
	t.eventHost += r.hostTimed
	t.worldHost += r.hostWorld
	t.formHost += r.hostForm
	if c.team != teamWorld {
		t.formModel = append(t.formModel, float64(r.stat.FormModelNS))
	}
	t.observe(r.stat)
}

// sweepPass runs every cell once.
func sweepPass(in *inputs, cells []sweepCell, t *tally, rec *recorder) error {
	ws := rec.begin("workload", 0)
	defer rec.end(ws)
	for _, c := range cells {
		// Collect the previous world and return its memory first, so
		// peak_rss_mb tracks the largest single world rather than the
		// collector's pacing.
		debug.FreeOSMemory()
		t.recordSweepCell(c, runSweepCell(in, c, rec, ws))
	}
	return nil
}

// setupProbe builds the largest world of a sweep, forms every team the
// sweep uses, and runs one warm-up episode of every kind under the auto
// policy: the cost of getting every image ready.
func setupProbe(in *inputs, t *tally, topo *topology.Topology, gridQ, elems int, kinds []core.Kind) (int, error) {
	w, err := pgas.NewWorld(sim.NewEnv(), machine.PaperCluster(), topo, trace.New())
	if err != nil {
		return 0, err
	}
	refs := map[int64][]float64{}
	var bad int64
	t.attempted += int64(len(kinds))
	err = runRecover(func() {
		w.Run(func(im *pgas.Image) {
			v := team.Initial(w, im)
			if gridQ > 0 {
				v.FormByNode()
				if _, _, err := v.Grid(v.NumImages()/gridQ, gridQ); err != nil {
					panic(err)
				}
			}
			for _, k := range kinds {
				op := newCollOp(in, k, core.AlgAuto, v, perMember(k, elems, topo.NumImages()), 0, refs)
				op.run()
				if !op.ok() {
					bad++
				}
			}
		})
	})
	if err != nil {
		t.fail(int64(len(kinds)), "set-up warm-up: %v", err)
	} else if bad > 0 {
		t.fail(min(bad, int64(len(kinds))), "set-up warm-up: %d outputs differ from the serial reference", bad)
	}
	return topo.NumImages(), nil
}

// runRecover runs fn, turning a panic (a simulated deadlock, a failed
// check inside the runtime) into an error.
func runRecover(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	fn()
	return nil
}

func mustSpec(spec string) *topology.Topology {
	topo, err := topology.ParseSpec(spec)
	if err != nil {
		panic(err)
	}
	return topo
}

// paperSweep: every registered algorithm of every kind, plus auto, on the
// world team at 64(8) and the paper's 352(44), with the small and the large
// vector; and auto on the node, grid-row and grid-column sub-teams.
var paperSweep = func() *workload {
	type shape struct {
		spec  string
		gridQ int
	}
	shapes := func(in *inputs) []shape {
		if in.quick {
			return []shape{{"16(4)", 8}}
		}
		return []shape{{"64(8)", 16}, {"352(44)", 16}}
	}
	cellsFor := func(in *inputs) []sweepCell {
		var cells []sweepCell
		for _, sh := range shapes(in) {
			topo := mustSpec(sh.spec)
			add := func(teamSel string, k core.Kind, alg string) {
				vecs := []string{"small", "large"}
				if k == core.KindBarrier {
					vecs = vecs[:1]
				}
				for _, vec := range vecs {
					n := in.small
					if vec == "large" {
						n = in.large
					}
					// The assembled vector of the gathering and
					// personalized kinds is n per member.
					cells = append(cells, sweepCell{shape: sh.spec, topo: topo, team: teamSel, kind: k, alg: alg,
						vec: vec, elems: perMember(k, n, topo.NumImages()), warm: 1, timed: 1, gridQ: sh.gridQ})
				}
			}
			for _, k := range core.Kinds() {
				for _, alg := range append(core.Algorithms(k), core.AlgAuto) {
					add(teamWorld, k, alg)
				}
			}
			for _, ts := range []string{teamNode, teamRow, teamCol} {
				for _, k := range core.Kinds() {
					add(ts, k, core.AlgAuto)
				}
			}
		}
		return cells
	}
	return &workload{
		setup: func(in *inputs, t *tally) (int, error) {
			sh := shapes(in)
			last := sh[len(sh)-1]
			return setupProbe(in, t, mustSpec(last.spec), last.gridQ, in.large, core.Kinds())
		},
		pass: func(in *inputs, t *tally, rec *recorder) error {
			return sweepPass(in, cellsFor(in), t, rec)
		},
	}
}()

// perMember returns the per-member block for kind k when the workload's
// vector has n elements: the gathering and personalized kinds move one
// block per member, so their block is n/images (at least 1) and the
// assembled vector stays about n long.
func perMember(k core.Kind, n, images int) int {
	switch k {
	case core.KindAllgather, core.KindScatter, core.KindGather, core.KindAlltoall:
		return max(1, n/images)
	}
	return n
}

// scale4k: 4096 images on 512 nodes of 2x4 cores; per kind a flat
// algorithm and the auto policy (hierarchy-aware at this shape).
var scale4k = func() *workload {
	const perNode = 8
	topoFor := func(in *inputs) *topology.Topology {
		images := 4096
		if in.quick {
			images = 256
		}
		topo, err := topology.New(images/perNode, 2, perNode/2, images, topology.PlaceBlock)
		if err != nil {
			panic(err)
		}
		return topo
	}
	// reduceto's flat algorithms keep 2·N scratch regions per image
	// (about 4 GB at 4096 images); reduceto runs its auto (2level) cell
	// only, whose leader-group scratch still grows with N.
	flat := []struct {
		k   core.Kind
		alg string
	}{
		{core.KindBarrier, "dissemination"},
		{core.KindAllreduce, "rd"},
		{core.KindBroadcast, "binomial"},
		{core.KindScan, "rd"},
	}
	kinds := []core.Kind{core.KindBarrier, core.KindAllreduce, core.KindReduceTo, core.KindBroadcast, core.KindScan}
	cellsFor := func(in *inputs) []sweepCell {
		var out []sweepCell
		topo := topoFor(in)
		mk := func(k core.Kind, alg string) sweepCell {
			return sweepCell{shape: fmt.Sprintf("%d(%d)", topo.NumImages(), topo.NumImages()/perNode), topo: topo, team: teamWorld, kind: k, alg: alg,
				vec: "small", elems: in.small, warm: 1, timed: 6}
		}
		for _, f := range flat {
			out = append(out, mk(f.k, f.alg))
		}
		for _, k := range kinds {
			out = append(out, mk(k, core.AlgAuto))
		}
		return out
	}
	return &workload{
		setup: func(in *inputs, t *tally) (int, error) {
			return setupProbe(in, t, topoFor(in), 0, in.small, kinds)
		},
		pass: func(in *inputs, t *tally, rec *recorder) error {
			return sweepPass(in, cellsFor(in), t, rec)
		},
	}
}()
