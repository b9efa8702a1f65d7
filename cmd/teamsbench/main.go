// Command teamsbench runs the Teams Microbenchmark suite (the paper's
// benchmark (1)): team barrier, all-to-all reduction and one-to-all
// broadcast latencies across placements and comparator stacks, reproducing
// experiments E1-E4 plus the E6/E7 ablations. See DESIGN.md for the
// experiment index and EXPERIMENTS.md for paper-vs-measured results.
//
// Usage:
//
//	teamsbench [-exp e1|e2|e3|e4|e6|e7|all] [-backend sim|native] [-iters N] [-csv]
//	teamsbench -alg list
//	teamsbench -alg all [-algspecs 64(8),352(44)] [-elems N] [-iters N] [-csv]
//	teamsbench -alg allreduce [-algspecs ...]        # every allreduce algorithm
//	teamsbench -alg allreduce/ring,bcast/2level      # specific algorithms
//	teamsbench -alg alltoall,scan                    # the personalized/prefix kinds
//
// The -alg family sweeps the pluggable algorithm registry: every named
// algorithm of every collective kind (barrier, allreduce, reduceto, bcast,
// allgather, scatter, gather, alltoall, scan) is runnable by its registry
// name, the same name accepted by caf.Config.WithAlgorithm. For the rooted
// and personalized kinds -elems is the per-image block size.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strconv"
	"strings"

	"cafteams/internal/bench"
	"cafteams/internal/coll"
	"cafteams/internal/core"
	"cafteams/internal/machine"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: e1, e2, e3, e4, e6, e7, overlap or all")
	iters := flag.Int("iters", 10, "episodes per measurement")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	alg := flag.String("alg", "", `sweep the algorithm registry: "list", "all", a kind ("allreduce"), or comma-separated "kind/name" entries`)
	algspecs := flag.String("algspecs", "16(4),64(8),352(44)", "comma-separated placements for -alg sweeps")
	elems := flag.Int("elems", 128, "vector elements for -alg sweeps of data collectives")
	backendFlag := flag.String("backend", "sim", `execution backend: "sim" (modeled cluster, simulated microseconds) or "native" (real goroutines, wall-clock microseconds)`)
	benchOut := flag.String("bench-out", "", "with -alg: also write a JSON snapshot of the sweep to this file (BENCH_native.json shape)")
	simbench := flag.Bool("simbench", false, "run the simulator-core microbenchmarks (events/sec, wall per simulated second)")
	simbenchOut := flag.String("simbench-out", "", "with -simbench: append the run as a labeled entry to this trajectory file (BENCH_sim.json shape)")
	simbenchLabel := flag.String("simbench-label", "", "label for the -simbench-out trajectory entry")
	scale := flag.String("scale", "", `extreme-scale study: comma-separated image counts (e.g. "4096,16384,65536"); multi-level topologies, modeled time, byte-deterministic output`)
	scaleElems := flag.Int("scale-elems", 8, "vector elements for the data collectives of -scale")
	scaleIters := flag.Int("scale-iters", 2, "episodes per -scale measurement")
	scaleKinds := flag.String("scale-kinds", "", `with -scale: only these collective kinds (comma-separated, e.g. "barrier,allreduce"); empty = all`)
	flag.Parse()
	backend = *backendFlag

	if *simbench {
		if err := runSimBench(os.Stdout, *simbenchOut, *simbenchLabel); err != nil {
			fmt.Fprintln(os.Stderr, "teamsbench:", err)
			os.Exit(1)
		}
		return
	}

	if *scale != "" {
		if err := runScaleStudy(os.Stdout, *scale, *scaleKinds, *scaleElems, *scaleIters); err != nil {
			fmt.Fprintln(os.Stderr, "teamsbench:", err)
			os.Exit(1)
		}
		return
	}

	if *alg != "" {
		if err := runAlgSweep(*alg, *algspecs, *elems, *iters, *csv, backend, *benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "teamsbench:", err)
			os.Exit(1)
		}
		return
	}

	run := func(name string, fn func(iters int) []bench.Point, title, ref string) {
		if *exp != "all" && *exp != name {
			return
		}
		pts := fn(*iters)
		if *csv {
			bench.CSV(os.Stdout, pts)
			return
		}
		bench.Table(os.Stdout, title, pts, ref)
		fmt.Println()
	}

	run("overlap", overlap, "Overlap: blocking vs split-phase co_sum with compute between initiate and wait", "2level blocking (compute; co_sum)")
	run("e1", e1, "E1: barrier on a flat hierarchy (1 image/node) — TDLB vs dissemination parity", "GASNet RDMA dissemination")
	run("e2", e2, "E2: barrier with 8 images/node — TDLB vs the comparator stacks (paper: up to 26x over the UHCAF baseline)", "TDLB (2-level)")
	run("e3", e3, "E3: all-to-all reduction with 8 images/node (paper: up to 74x)", "two-level reduction")
	run("e4", e4, "E4: one-to-all broadcast with 8 images/node (paper: up to 3x)", "two-level broadcast")
	run("e6", e6, "E6: ablation — intra-node x inter-node strategy choices for the team barrier", "TDLB: linear intra + dissemination inter")
	run("e7", e7, "E7: multi-level extension — socket-aware 3-level barrier (paper future work)", "2-level (TDLB)")
}

// backend is the execution substrate every measurement runs on, set from
// the -backend flag ("sim" unless overridden).
var backend = "sim"

// runSimBench runs every simulator-core microbenchmark workload and renders
// the throughput table; a non-empty out additionally appends the run to the
// BENCH_sim.json trajectory under label.
func runSimBench(w io.Writer, out, label string) error {
	title := "simulator core: events/sec and wall-clock per simulated second"
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "  %-18s %10s %14s %14s %14s %14s\n",
		"workload", "events", "sim_ns", "wall_ns", "events/sec", "wall_s/sim_s")
	var pts []bench.SimCorePoint
	for _, wl := range bench.SimCoreWorkloads() {
		p, err := bench.MeasureSimCore(wl)
		if err != nil {
			return err
		}
		pts = append(pts, p)
		fmt.Fprintf(w, "  %-18s %10d %14d %14d %14.0f %14.3f\n",
			p.Workload, p.Events, p.SimNS, p.WallNS, p.EventsPerSec, p.WallPerSimSec)
	}
	if out != "" {
		if label == "" {
			label = "unlabeled"
		}
		if err := bench.AppendTrajectory(out, label, pts); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nappended entry %q to %s\n", label, out)
	}
	return nil
}

// runScaleStudy runs the extreme-scale sweeps: for each collective kind
// (all of them, or the -scale-kinds subset), the logarithmic-depth
// algorithms across the requested image counts on multi-level topologies.
// Output is modeled time and event counts only — byte-deterministic for a
// given argument set.
func runScaleStudy(w io.Writer, ns, kinds string, elems, iters int) error {
	var images []int
	for _, f := range strings.Split(ns, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil {
			return fmt.Errorf("-scale: %q: %v", f, err)
		}
		images = append(images, n)
	}
	if len(images) == 0 {
		return fmt.Errorf("-scale: no image counts given")
	}
	want := map[string]bool{}
	for _, f := range strings.Split(kinds, ",") {
		if f = strings.TrimSpace(f); f != "" {
			want[f] = true
		}
	}
	matched := 0
	for _, ka := range bench.ScaleKindAlgs() {
		if len(want) > 0 && !want[ka.Kind.String()] {
			continue
		}
		matched++
		var pts []bench.ScalePoint
		for _, alg := range ka.Algs {
			for _, n := range images {
				p, err := bench.MeasureScale(ka.Kind, alg, n, elems, iters)
				if err != nil {
					return err
				}
				pts = append(pts, p)
				// A 64k-image world leaves gigabytes of garbage behind;
				// hand the pages back before building the next one so
				// back-to-back large measurements don't ratchet RSS into
				// the OOM killer.
				debug.FreeOSMemory()
			}
		}
		bench.ScaleTable(w, ka.Kind.String(), pts)
		fmt.Fprintln(w)
	}
	if len(want) > 0 && matched != len(want) {
		return fmt.Errorf("-scale-kinds: unknown kind in %q (known: barrier, allreduce, reduceto, bcast, scan)", kinds)
	}
	return nil
}

// measure runs one comparator on the selected backend.
func measure(spec string, c bench.Comparator, elems, iters int) (bench.Point, error) {
	return bench.MeasureBackend(spec, backend, c, elems, iters)
}

// runAlgSweep measures named registry algorithms across placements on the
// given backend. sel is "list", "all", a bare kind name, or comma-separated
// "kind/name" entries. A non-empty jsonOut additionally writes the sweep as
// a JSON snapshot (the BENCH_native.json shape).
func runAlgSweep(sel, specs string, elems, iters int, csv bool, backend, jsonOut string) error {
	if sel == "list" {
		for _, k := range core.Kinds() {
			fmt.Printf("%-10s %s\n", k, strings.Join(core.Algorithms(k), " "))
		}
		return nil
	}
	// Resolve the selection to per-kind comparator lists.
	byKind := map[core.Kind][]bench.Comparator{}
	order := []core.Kind{}
	add := func(k core.Kind, cmps []bench.Comparator) {
		if len(byKind[k]) == 0 {
			order = append(order, k)
		}
		byKind[k] = append(byKind[k], cmps...)
	}
	switch {
	case sel == "all":
		for _, k := range core.Kinds() {
			add(k, bench.RegistryComparators(k))
		}
	default:
		for _, entry := range strings.Split(sel, ",") {
			kindName, algName, hasAlg := strings.Cut(entry, "/")
			k, err := core.ParseKind(kindName)
			if err != nil {
				return err
			}
			if !hasAlg {
				add(k, bench.RegistryComparators(k))
				continue
			}
			// "auto" (and "") are valid Tuning entries but name a per-call
			// selection rule, not a concrete algorithm — nothing to sweep.
			if algName == "" || algName == core.AlgAuto {
				return fmt.Errorf("%q is not sweepable: %q is a selection rule, not an algorithm (sweep the whole kind with %q instead)",
					entry, algName, kindName)
			}
			if !core.HasAlgorithm(k, algName) {
				return fmt.Errorf("unknown algorithm %q (registered for %s: %s)",
					entry, k, strings.Join(core.Algorithms(k), " "))
			}
			add(k, []bench.Comparator{bench.RegistryComparator(k, algName)})
		}
	}
	var csvPts []bench.Point // accumulated across kinds: one header, one block
	snap := sweepSnapshot{
		Bench:   "teams-alg-sweep",
		Backend: backend,
		Specs:   specs,
		Elems:   elems,
		Iters:   iters,
		Kinds:   map[string][]sweepEntry{},
	}
	for _, k := range order {
		cmps := byKind[k]
		n := elems
		if k == core.KindBarrier {
			n = 1
		}
		var pts []bench.Point
		for _, spec := range strings.Split(specs, ",") {
			spec = strings.TrimSpace(spec)
			if spec == "" {
				continue
			}
			for _, c := range cmps {
				p, err := bench.MeasureBackend(spec, backend, c, n, iters)
				if err != nil {
					return err
				}
				pts = append(pts, p)
				snap.Kinds[k.String()] = append(snap.Kinds[k.String()], sweepEntry{
					Alg:       p.Comparator,
					Spec:      p.Spec,
					UsPerOp:   float64(p.Latency) / 1000,
					IntraMsgs: p.IntraMsgs,
					InterMsgs: p.InterMsgs,
				})
			}
		}
		if !csv {
			title := fmt.Sprintf("registry sweep: %s (%d elems, %s backend)", k, n, backend)
			bench.Table(os.Stdout, title, pts, cmps[0].Name)
			fmt.Println()
		} else {
			csvPts = append(csvPts, pts...)
		}
	}
	if csv {
		bench.CSV(os.Stdout, csvPts)
	}
	if jsonOut != "" {
		buf, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// sweepSnapshot is the -bench-out JSON document: sweep parameters plus
// per-kind measured points. On the native backend us_per_op is wall-clock
// and varies run to run; on sim it is deterministic modeled time.
type sweepSnapshot struct {
	Bench   string                  `json:"bench"`
	Backend string                  `json:"backend"`
	Specs   string                  `json:"specs"`
	Elems   int                     `json:"elems"`
	Iters   int                     `json:"iters"`
	Kinds   map[string][]sweepEntry `json:"kinds"`
}

type sweepEntry struct {
	Alg       string  `json:"alg"`
	Spec      string  `json:"spec"`
	UsPerOp   float64 `json:"us_per_op"`
	IntraMsgs int64   `json:"intra_msgs"`
	InterMsgs int64   `json:"inter_msgs"`
}

func must(p bench.Point, err error) bench.Point {
	if err != nil {
		fmt.Fprintln(os.Stderr, "teamsbench:", err)
		os.Exit(1)
	}
	return p
}

// overlap: split-phase collectives — each episode computes ~55 us of local
// work and reduces a 128-element vector; the overlapped rows initiate the
// reduction first and compute while the progress engine drives it.
func overlap(iters int) []bench.Point {
	const flops = 3e4
	var pts []bench.Point
	for _, spec := range []string{"16(2)", "64(8)", "352(44)"} {
		for _, alg := range []string{"2level", "rd"} {
			for _, c := range bench.OverlapComparators(alg, flops) {
				pts = append(pts, must(measure(spec, c, 128, iters)))
			}
		}
	}
	return pts
}

// e1: one image per node; TDLB degenerates to dissemination.
func e1(iters int) []bench.Point {
	var pts []bench.Point
	cmps := bench.Comparators(bench.Barrier)
	for _, spec := range []string{"4(4)", "8(8)", "16(16)", "32(32)", "44(44)"} {
		for _, c := range cmps {
			if c.Name == "TDLB (2-level)" || c.Name == "GASNet RDMA dissemination" {
				pts = append(pts, must(measure(spec, c, 1, iters)))
			}
		}
	}
	return pts
}

// e2: the paper's dense placement, full comparator set.
func e2(iters int) []bench.Point {
	var pts []bench.Point
	for _, spec := range []string{"16(2)", "64(8)", "128(16)", "256(32)", "352(44)"} {
		for _, c := range bench.Comparators(bench.Barrier) {
			pts = append(pts, must(measure(spec, c, 1, iters)))
		}
	}
	return pts
}

func e3(iters int) []bench.Point {
	var pts []bench.Point
	for _, spec := range []string{"64(8)", "352(44)"} {
		for _, elems := range []int{8, 128, 1024} {
			for _, c := range bench.Comparators(bench.Reduce) {
				p := must(measure(spec, c, elems, iters))
				p.Comparator = fmt.Sprintf("%s [%d elems]", p.Comparator, elems)
				pts = append(pts, p)
			}
		}
	}
	return pts
}

func e4(iters int) []bench.Point {
	var pts []bench.Point
	for _, spec := range []string{"64(8)", "352(44)"} {
		for _, elems := range []int{8, 128, 1024} {
			for _, c := range bench.Comparators(bench.Bcast) {
				p := must(measure(spec, c, elems, iters))
				p.Comparator = fmt.Sprintf("%s [%d elems]", p.Comparator, elems)
				pts = append(pts, p)
			}
		}
	}
	return pts
}

// e6: strategy ablation for the barrier.
func e6(iters int) []bench.Point {
	strategies := []bench.Comparator{
		{Name: "TDLB: linear intra + dissemination inter", Conduit: machine.ConduitGASNetRDMA,
			Run: func(v *team.View, _ []float64, it int) {
				for i := 0; i < it; i++ {
					core.BarrierTDLB(v)
				}
			}},
		{Name: "TDLL: linear intra + linear inter", Conduit: machine.ConduitGASNetRDMA,
			Run: func(v *team.View, _ []float64, it int) {
				for i := 0; i < it; i++ {
					core.BarrierTDLL(v)
				}
			}},
		{Name: "flat dissemination (no hierarchy)", Conduit: machine.ConduitGASNetRDMA,
			Run: func(v *team.View, _ []float64, it int) {
				for i := 0; i < it; i++ {
					coll.BarrierDissemination(v, pgas.ViaConduit)
				}
			}},
		{Name: "flat linear (no hierarchy)", Conduit: machine.ConduitGASNetRDMA,
			Run: func(v *team.View, _ []float64, it int) {
				for i := 0; i < it; i++ {
					coll.BarrierLinear(v, pgas.ViaConduit)
				}
			}},
		{Name: "flat tournament (no hierarchy)", Conduit: machine.ConduitGASNetRDMA,
			Run: func(v *team.View, _ []float64, it int) {
				for i := 0; i < it; i++ {
					coll.BarrierTournament(v, pgas.ViaConduit)
				}
			}},
		{Name: "flat binomial tree (no hierarchy)", Conduit: machine.ConduitGASNetRDMA,
			Run: func(v *team.View, _ []float64, it int) {
				for i := 0; i < it; i++ {
					coll.BarrierTree(v, pgas.ViaConduit)
				}
			}},
	}
	var pts []bench.Point
	for _, spec := range []string{"64(8)", "352(44)"} {
		for _, c := range strategies {
			pts = append(pts, must(measure(spec, c, 1, iters)))
		}
	}
	return pts
}

// e7: 3-level (socket-aware) extension.
func e7(iters int) []bench.Point {
	levels := []bench.Comparator{
		{Name: "2-level (TDLB)", Conduit: machine.ConduitGASNetRDMA,
			Run: func(v *team.View, _ []float64, it int) {
				for i := 0; i < it; i++ {
					core.BarrierTDLB(v)
				}
			}},
		{Name: "3-level (TDLB3, socket-aware)", Conduit: machine.ConduitGASNetRDMA,
			Run: func(v *team.View, _ []float64, it int) {
				for i := 0; i < it; i++ {
					core.BarrierTDLB3(v)
				}
			}},
		{Name: "flat dissemination", Conduit: machine.ConduitGASNetRDMA,
			Run: func(v *team.View, _ []float64, it int) {
				for i := 0; i < it; i++ {
					coll.BarrierDissemination(v, pgas.ViaConduit)
				}
			}},
	}
	var pts []bench.Point
	for _, spec := range []string{"64(8)", "176(22)", "352(44)"} {
		for _, c := range levels {
			pts = append(pts, must(measure(spec, c, 1, iters)))
		}
	}
	return pts
}
