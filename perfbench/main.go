// Command perfbench is the repository's end-to-end benchmark: it runs one
// named workload against the collectives runtime, checks every output
// against a serial reference, and prints the metrics named in
// BENCHMARK.json as one JSON object on the last line of standard output.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
//
// Workloads: paper-sweep, scale-4k, native-apps, cluster-mix (see
// README.md). --trace 0 prints the end-to-end metrics; --trace 1 runs
// untraced and traced passes alternately, records spans around the calls
// into each layer, prints the per-layer metrics plus the tracing overhead,
// and writes the spans to --spans-out (default
// .bench_build/spans-<workload>-seed<n>.jsonl). --cpuprofile and
// --memprofile write pprof profiles of the run.
//
// The benchmark times calls into the runtime's public functions from the
// outside; it does not modify the runtime.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
)

// heldOutSeed is never used while tuning the benchmark or a change; a
// performance claim is confirmed on it last (see README.md).
const heldOutSeed = 7919

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	spansOut   string
	cpuProfile string
	memProfile string
	// Set by tests only: see inputs.
	quick, corrupt bool
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "host seconds the timed phase measures for")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics and tracing overhead")
	flag.StringVar(&o.spansOut, "spans-out", "", "with --trace 1: write the recorded spans to this JSON-lines file (default .bench_build/spans-<workload>-seed<n>.jsonl)")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile at the end of the run to this file")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options, out io.Writer) error {
	wl, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	res, err := measure(wl, o)
	if err != nil {
		return err
	}
	if o.memProfile != "" {
		if err := writeHeapProfile(o.memProfile); err != nil {
			return err
		}
	}
	if o.trace {
		path := o.spansOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return err
			}
		}
		if err := res.rec.writeJSONLines(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return report(out, o, res)
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("writing heap profile: %w", err)
	}
	return f.Close()
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints the machine fingerprint, the determinism digest and the
// span self-time table as human-readable lines, then the summary line.
func report(out io.Writer, o options, res *result) error {
	fp := fingerprint()
	fmt.Fprintf(out, "fingerprint: nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n",
		fp.nproc, fp.gomaxprocs, fp.cpu, fp.goVersion, fp.commit)
	fmt.Fprintf(out, "workload=%s seed=%d held_out=%v passes=%d traced_passes=%d\n",
		o.workload, o.seed, o.seed == heldOutSeed, res.passes, res.tracedPasses)
	fmt.Fprintf(out, "digest: %s\n", res.digest)
	for _, line := range res.notes {
		fmt.Fprintln(out, line)
	}
	if o.trace {
		res.rec.printSelfTimes(out)
	}
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	s := summary{
		Correct:   res.t.failed == 0,
		Attempted: res.t.attempted,
		Failed:    res.t.failed,
		Metrics:   map[string]metric{},
	}
	if s.Attempted < 1 {
		return fmt.Errorf("workload %s attempted no operations", o.workload)
	}
	for _, d := range names {
		v, ok := res.values[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not produce metric %s", o.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // nothing measured, e.g. every cell failed; failed says why
		}
		s.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
