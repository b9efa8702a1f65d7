package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics printed with --trace 0, in BENCHMARK.json
// order. Every workload reports every one of them; README.md gives each
// metric's definition per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"episodes_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"model_us_geomean", "us"},
	{"model_us_auto_geomean", "us"},
	{"turnaround_us_p50", "us"},
	{"turnaround_us_p99", "us"},
	{"coll_us_p50", "us"},
	{"coll_us_p90", "us"},
	{"solve_ms_p50", "ms"},
	{"bytes_per_image", "B"},
	{"peak_rss_mb", "MB"},
	{"ops_ok_ratio", "ratio"},
}

// kindNames are the collective kinds of core's registry, as named there.
var kindNames = []string{"barrier", "allreduce", "reduceto", "bcast", "allgather", "scatter", "gather", "alltoall", "scan"}

// cafOps are the caf calls native-apps times one by one.
var cafOps = []string{"co_sum", "co_max", "co_broadcast", "co_allgather", "sync_all"}

// clusterKinds are the collective kinds the cluster-mix jobs time.
var clusterKinds = []string{"allreduce", "alltoall", "barrier", "broadcast", "scan"}

// perLayer lists the metrics printed with --trace 1. A workload that does
// not exercise a layer reports 0 for that layer's metrics.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.events_per_s", "1/s"},
		{"sim.ns_per_event", "ns"},
		{"pgas.msgs_intra", "count"},
		{"pgas.msgs_inter", "count"},
		{"pgas.bytes_intra", "B"},
		{"pgas.bytes_inter", "B"},
		{"pgas.world_s", "s"},
		{"pgas.warm_bytes_per_image", "B"},
		{"team.form_s", "s"},
		{"team.form_model_us", "us"},
	}
	for _, k := range kindNames {
		defs = append(defs,
			metricDef{"core." + k + ".model_us_auto", "us"},
			metricDef{"core." + k + ".model_us_best", "us"},
			metricDef{"core." + k + ".host_us", "us"})
	}
	defs = append(defs, metricDef{"core.auto_regret", "ratio"})
	for _, op := range cafOps {
		defs = append(defs, metricDef{"caf." + op + ".us_p50", "us"})
	}
	defs = append(defs,
		metricDef{"caf.overlap_ratio", "ratio"},
		metricDef{"cluster.wait_us_p50", "us"},
		metricDef{"cluster.utilization", "ratio"})
	for _, k := range clusterKinds {
		defs = append(defs, metricDef{"cluster.penalty." + k, "ratio"})
	}
	return append(defs,
		metricDef{"cluster.sched_s", "s"},
		metricDef{"bench.trace_overhead", "ratio"},
		metricDef{"bench.spans", "count"})
}()

// workload is one named benchmark workload.
type workload struct {
	// setup runs one set-up probe (world build, team formation, lazy
	// scratch creation and a warm-up episode on every image), counts its
	// checked outputs into t, and returns the number of images set up.
	setup func(in *inputs, t *tally) (images int, err error)
	// pass runs the workload's whole cell list once, recording into t.
	pass func(in *inputs, t *tally, rec *recorder) error
	// finish, when set, derives workload-specific metric values from
	// the tally of every pass.
	finish func(t *tally, v map[string]float64)
}

var workloads = map[string]*workload{
	"paper-sweep": paperSweep,
	"scale-4k":    scale4k,
	"native-apps": nativeApps,
	"cluster-mix": clusterMix,
}

// A run sets the workload up at least minSetupProbes times, and more while
// the probes so far took under setupBudget (up to maxSetupProbes), so
// cheap set-ups get enough samples for a steady median; setup_s is the
// median.
const (
	minSetupProbes = 5
	maxSetupProbes = 51
	setupBudget    = time.Second
)

// minPasses lets the determinism guard compare every cell with a repeat.
const minPasses = 2

// cellStat is what one cell (one world, app run or job) produced. The
// counts are deterministic on every backend; Model is deterministic on the
// sim backend only (det).
type cellStat struct {
	Key      string `json:"key"`
	Kind     string `json:"kind,omitempty"`
	Auto     bool   `json:"auto,omitempty"`
	Group    string `json:"group,omitempty"` // cells whose algorithms compete
	Images   int    `json:"images"`
	Episodes int64  `json:"episodes"`
	// ModelNS is the timed phase's duration on the backend's clock:
	// modeled on sim, wall on native.
	ModelNS     int64 `json:"model_ns,omitempty"`
	Events      int64 `json:"events"`
	IntraMsgs   int64 `json:"intra_msgs"`
	InterMsgs   int64 `json:"inter_msgs"`
	IntraBytes  int64 `json:"intra_bytes"`
	InterBytes  int64 `json:"inter_bytes"`
	FormModelNS int64 `json:"form_model_ns,omitempty"`
	TurnNS      int64 `json:"turn_ns,omitempty"` // cluster jobs: arrival to end
	det         bool
}

// tally accumulates everything the passes of one run measure.
type tally struct {
	attempted, failed int64
	episodes, jobs    int64
	// hostTimed is host seconds spent in timed phases (excludes set-up).
	hostTimed   float64
	imageWorlds int64

	callUS  sample    // per-call latency at the caller, backend clock
	runUS   []float64 // per-world time to completion, backend clock
	solveMS []float64 // per-solve time, backend clock
	// cellPct holds, per latency metric, one percentile per sweep cell.
	// A sweep's cells are different experiments; a percentile pooled
	// over them jumps from one cell to another as a seed perturbs them,
	// so sweeps report the geometric mean of per-cell percentiles.
	cellPct map[string][]float64

	order   []string
	first   map[string]cellStat
	modelUS map[string][]float64 // per cell, µs per episode, one per pass

	hostByKind map[string]float64
	epByKind   map[string]int64
	events     int64
	eventHost  float64
	worldHost  float64
	formHost   float64
	formModel  []float64
	layer      map[string]float64 // per-layer values a workload sets directly
	notes      []string

	opUS  map[string]*sample   // native-apps: per caf op, µs per call
	appNS map[string][]float64 // native-apps: per app, wall ns per run
}

func newTally() *tally {
	return &tally{first: map[string]cellStat{}, modelUS: map[string][]float64{},
		hostByKind: map[string]float64{}, epByKind: map[string]int64{}, layer: map[string]float64{},
		opUS: map[string]*sample{}, appNS: map[string][]float64{}, cellPct: map[string][]float64{}}
}

// fail counts n failed operations and keeps the first few reasons.
func (t *tally) fail(n int64, format string, args ...any) {
	t.failed += n
	if len(t.notes) < 20 {
		t.notes = append(t.notes, "FAIL: "+fmt.Sprintf(format, args...))
	}
}

// observe records one cell's result and applies the determinism guard: a
// deterministic cell whose statistics differ from its first pass fails.
func (t *tally) observe(c cellStat) {
	if c.Episodes > 0 {
		t.modelUS[c.Key] = append(t.modelUS[c.Key], float64(c.ModelNS)/1e3/float64(c.Episodes))
	}
	prev, seen := t.first[c.Key]
	if !seen {
		t.first[c.Key] = c
		t.order = append(t.order, c.Key)
		return
	}
	if !c.det {
		prev.ModelNS, c.ModelNS = 0, 0
	}
	if prev != c {
		t.fail(max(c.Episodes, 1), "determinism: cell %s changed between passes: %+v then %+v", c.Key, prev, c)
	}
}

// digest hashes every cell's deterministic statistics, so a change that
// alters the model shows as a changed digest even if no check fails.
func (t *tally) digest() string {
	h := sha256.New()
	for _, k := range t.order {
		c := t.first[k]
		if !c.det {
			c.ModelNS = 0
		}
		b, _ := json.Marshal(c) // a struct of plain fields always marshals
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cellModelUS returns each cell's median µs per episode across passes.
func (t *tally) cellModelUS(key string) float64 { return median(t.modelUS[key]) }

// modelGeomeans returns the geometric means of µs per episode over all
// collective cells and over the auto cells.
func (t *tally) modelGeomeans() (all, auto float64) {
	var xs, as []float64
	for _, k := range t.order {
		c := t.first[k]
		if c.Episodes == 0 {
			continue
		}
		v := t.cellModelUS(k)
		xs = append(xs, v)
		if c.Auto {
			as = append(as, v)
		}
	}
	return geomean(xs), geomean(as)
}

// coreLayer fills the core.<kind>.* metrics and core.auto_regret: for each
// group of competing cells, the auto cell against the best algorithm.
func (t *tally) coreLayer(v map[string]float64) {
	type grp struct{ auto, best float64 }
	groups := map[string]*grp{}
	var gorder []string
	autoByKind, bestByKind := map[string][]float64{}, map[string][]float64{}
	for _, k := range t.order {
		c := t.first[k]
		if c.Kind == "" || c.Group == "" {
			continue
		}
		g, ok := groups[c.Group]
		if !ok {
			g = &grp{best: math.Inf(1)}
			groups[c.Group] = g
			gorder = append(gorder, c.Group)
		}
		us := t.cellModelUS(k)
		if c.Auto {
			g.auto = us
			autoByKind[c.Kind] = append(autoByKind[c.Kind], us)
		} else if us < g.best {
			g.best = us
		}
	}
	var regrets []float64
	for _, name := range gorder {
		g := groups[name]
		if g.auto > 0 && !math.IsInf(g.best, 1) {
			regrets = append(regrets, g.auto/g.best)
			kind := strings.SplitN(name, "|", 2)[0]
			bestByKind[kind] = append(bestByKind[kind], g.best)
		}
	}
	for _, kind := range kindNames {
		v["core."+kind+".model_us_auto"] = geomean(autoByKind[kind])
		v["core."+kind+".model_us_best"] = geomean(bestByKind[kind])
		if n := t.epByKind[kind]; n > 0 {
			v["core."+kind+".host_us"] = t.hostByKind[kind] / float64(n) * 1e6
		}
	}
	v["core.auto_regret"] = geomean(regrets)
}

// result is one run's measurements.
type result struct {
	t            *tally
	rec          *recorder
	values       map[string]float64
	digest       string
	notes        []string
	passes       int
	tracedPasses int
}

// measure runs a workload: set-up probes, then timed passes until the next
// pass would overrun --seconds (at least minPasses).
func measure(wl *workload, o options) (*result, error) {
	in := newInputs(o.seed, o.quick, o.corrupt)
	values := map[string]float64{}
	for _, d := range perLayer {
		values[d.name] = 0
	}

	t := newTally()
	var setups []float64
	var warmBytes, warmImages float64
	setupStart := time.Now()
	for i := 0; i < maxSetupProbes; i++ {
		if in.quick && i == 1 || i >= minSetupProbes && time.Since(setupStart) > setupBudget {
			break
		}
		runtime.GC()
		a0 := totalAlloc()
		t0 := time.Now()
		imgs, err := wl.setup(in, t)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		warmBytes += float64(totalAlloc() - a0)
		warmImages += float64(imgs)
	}
	values["setup_s"] = median(setups)
	values["pgas.warm_bytes_per_image"] = warmBytes / warmImages

	rec := newRecorder()
	runtime.GC()
	a0 := totalAlloc()
	start := time.Now()
	var plain, traced []float64
	for p := 0; ; p++ {
		on := o.trace && p%2 == 1
		rec.enable(on)
		ps := time.Now()
		if err := wl.pass(in, t, rec); err != nil {
			return nil, err
		}
		d := time.Since(ps).Seconds()
		if on {
			traced = append(traced, d)
		} else {
			plain = append(plain, d)
		}
		if p+1 >= minPasses && time.Since(start).Seconds()+d > o.seconds {
			break
		}
	}
	rec.enable(false)
	if t.imageWorlds > 0 {
		values["bytes_per_image"] = float64(totalAlloc()-a0) / float64(t.imageWorlds)
	}
	values["peak_rss_mb"] = peakRSSMB()
	values["episodes_per_s"] = float64(t.episodes) / t.hostTimed
	values["jobs_per_s"] = float64(t.jobs) / t.hostTimed
	values["model_us_geomean"], values["model_us_auto_geomean"] = t.modelGeomeans()
	values["turnaround_us_p50"] = percentile(t.runUS, 50)
	values["turnaround_us_p99"] = percentile(t.runUS, 99)
	values["coll_us_p50"] = percentile(t.callUS.xs, 50)
	values["coll_us_p90"] = percentile(t.callUS.xs, 90)
	values["solve_ms_p50"] = percentile(t.solveMS, 50)
	for name, xs := range t.cellPct {
		values[name] = geomean(xs)
	}
	values["ops_ok_ratio"] = float64(t.attempted-t.failed) / float64(max(t.attempted, 1))

	passes := float64(len(plain) + len(traced))
	values["sim.events"] = float64(t.events) / passes
	if t.eventHost > 0 && t.events > 0 {
		values["sim.events_per_s"] = float64(t.events) / t.eventHost
		values["sim.ns_per_event"] = t.eventHost / float64(t.events) * 1e9
	}
	var eps, intra, inter, bIntra, bInter float64
	for _, k := range t.order {
		c := t.first[k]
		eps += float64(c.Episodes)
		intra += float64(c.IntraMsgs)
		inter += float64(c.InterMsgs)
		bIntra += float64(c.IntraBytes)
		bInter += float64(c.InterBytes)
	}
	if eps > 0 {
		values["pgas.msgs_intra"] = intra / eps
		values["pgas.msgs_inter"] = inter / eps
		values["pgas.bytes_intra"] = bIntra / eps
		values["pgas.bytes_inter"] = bInter / eps
	}
	values["pgas.world_s"] = t.worldHost / passes
	values["team.form_s"] = t.formHost / passes
	values["team.form_model_us"] = mean(t.formModel) / 1e3
	t.coreLayer(values)
	if len(traced) > 0 {
		values["bench.trace_overhead"] = median(traced)/median(plain) - 1
	}
	values["bench.spans"] = float64(rec.count())
	if wl.finish != nil {
		wl.finish(t, values)
	}
	for k, v := range t.layer {
		values[k] = v
	}
	return &result{t: t, rec: rec, values: values, digest: t.digest(), notes: t.notes,
		passes: len(plain) + len(traced), tracedPasses: len(traced)}, nil
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// sample keeps a uniform random sample of at most sampleCap values from a
// stream (reservoir sampling with a fixed-seed generator, so a
// deterministic stream gives a deterministic sample). Per-call latencies
// go through it so the benchmark's own memory does not grow with run
// length and show up in peak_rss_mb.
type sample struct {
	xs  []float64
	n   uint64
	rng uint64
}

const sampleCap = 1 << 17

func (s *sample) add(xs ...float64) {
	for _, x := range xs {
		s.n++
		if len(s.xs) < sampleCap {
			s.xs = append(s.xs, x)
			continue
		}
		s.rng = s.rng*6364136223846793005 + 1442695040888963407
		if j := (s.rng >> 11) % s.n; j < sampleCap {
			s.xs[j] = x
		}
	}
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (0 for an empty sample).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// machineFingerprint identifies where a result was measured.
type machineFingerprint struct {
	nproc, gomaxprocs int
	cpu, goVersion    string
	commit            string
}

func fingerprint() machineFingerprint {
	fp := machineFingerprint{nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion: runtime.Version(), cpu: "unknown", commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		// Stamped by go build inside a git work tree; a plain source
		// checkout has none.
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.commit = s.Value
			}
		}
	}
	return fp
}
