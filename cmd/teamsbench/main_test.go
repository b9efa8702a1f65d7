package main

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"cafteams/internal/bench"
	"cafteams/internal/core"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	defer func() {
		os.Stdout = old
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

// TestAlgSweepList: the `-alg list` path prints every kind with its
// registry names; split-phase is a way to run any of them, not a name.
func TestAlgSweepList(t *testing.T) {
	out := captureStdout(t, func() {
		if err := runAlgSweep("list", "", 8, 1, false, "sim", ""); err != nil {
			t.Errorf("alg list: %v", err)
		}
	})
	for _, want := range []string{"barrier", "allreduce", "tdlb", "rd", "2level", "binomial", "ring"} {
		if !strings.Contains(out, want) {
			t.Fatalf("alg list output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "nb-") {
		t.Fatalf("alg list output lists a split-phase name:\n%s", out)
	}
}

// TestAlgSweepMeasures: a small named sweep renders a table with the
// requested algorithms.
func TestAlgSweepMeasures(t *testing.T) {
	out := captureStdout(t, func() {
		if err := runAlgSweep("allreduce/rd,allreduce/2level,barrier/tdlb", "8(2)", 4, 1, false, "sim", ""); err != nil {
			t.Errorf("alg sweep: %v", err)
		}
	})
	for _, want := range []string{"allreduce/rd", "allreduce/2level", "barrier/tdlb", "latency/op"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sweep output missing %q:\n%s", want, out)
		}
	}
}

// TestAlgSweepCSV: the CSV path emits a header and one row per
// (spec, comparator).
func TestAlgSweepCSV(t *testing.T) {
	out := captureStdout(t, func() {
		if err := runAlgSweep("bcast/2level", "8(2)", 4, 1, true, "sim", ""); err != nil {
			t.Errorf("alg csv sweep: %v", err)
		}
	})
	if !strings.Contains(out, "spec,comparator") || !strings.Contains(out, "bcast/2level") {
		t.Fatalf("csv sweep output malformed:\n%s", out)
	}
}

// TestAlgSweepRejectsUnknown pins the error path.
func TestAlgSweepRejectsUnknown(t *testing.T) {
	for _, alg := range []string{"allreduce/no-such-alg", "allreduce/nb-rd"} {
		if err := runAlgSweep(alg, "8(2)", 4, 1, false, "sim", ""); err == nil {
			t.Fatalf("unknown algorithm %s accepted", alg)
		}
	}
	if err := runAlgSweep("nokind/rd", "8(2)", 4, 1, false, "sim", ""); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// "auto" and "" are Tuning selection rules, not sweepable algorithms;
	// they used to panic mid-measurement instead of erroring up front.
	if err := runAlgSweep("allreduce/auto", "8(2)", 4, 1, false, "sim", ""); err == nil {
		t.Fatal("allreduce/auto accepted")
	}
	if err := runAlgSweep("allreduce/", "8(2)", 4, 1, false, "sim", ""); err == nil {
		t.Fatal("empty algorithm name accepted")
	}
}

// TestAlgSweepGolden pins the modeled output of every registered algorithm
// byte for byte: `teamsbench -alg all -algspecs '16(4),64(8),9(3)' -elems 32
// -iters 3` must print testdata/alg-sweep.golden exactly. Latency, message
// counts and ratios are all simulated, so any change to a protocol's
// messages, sizes, paths or timing shows up here. Regenerate the file with
// that command only when a change to the model is intended.
func TestAlgSweepGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/alg-sweep.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := captureStdout(t, func() {
		if err := runAlgSweep("all", "16(4),64(8),9(3)", 32, 3, false, "sim", ""); err != nil {
			t.Errorf("alg sweep: %v", err)
		}
	})
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("alg sweep differs from testdata/alg-sweep.golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}

// TestExperimentTables smoke-runs the cheapest experiment and the overlap
// table so the e* plumbing is exercised by tier-1.
func TestExperimentTables(t *testing.T) {
	pts := e1(1)
	if len(pts) == 0 {
		t.Fatal("e1 produced no points")
	}
	for _, p := range pts {
		if p.Latency <= 0 {
			t.Fatalf("e1 point %+v has non-positive latency", p)
		}
	}
	ov := overlap(1)
	if len(ov) == 0 {
		t.Fatal("overlap produced no points")
	}
	// Each (spec, alg) pair is blocking-then-overlapped; overlapped must
	// never be slower.
	for i := 0; i+1 < len(ov); i += 2 {
		if ov[i+1].Latency >= ov[i].Latency {
			t.Fatalf("overlap table: %q (%d ns) not faster than %q (%d ns)",
				ov[i+1].Comparator, ov[i+1].Latency, ov[i].Comparator, ov[i].Latency)
		}
	}
}

// TestAlgSweepNativeBackend: the -backend=native path runs a small shape on
// real goroutines; the table must render with positive wall-clock timings.
func TestAlgSweepNativeBackend(t *testing.T) {
	out := captureStdout(t, func() {
		if err := runAlgSweep("barrier/tdlb,allreduce/2level", "8(2)", 4, 2, false, "native", ""); err != nil {
			t.Errorf("native sweep: %v", err)
		}
	})
	for _, want := range []string{"native backend", "barrier/tdlb", "allreduce/2level", "latency/op"} {
		if !strings.Contains(out, want) {
			t.Fatalf("native sweep output missing %q:\n%s", want, out)
		}
	}
	// Wall-clock latencies must be strictly positive in every table cell.
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, " us ") {
			continue
		}
		fields := strings.Fields(line)
		for i, f := range fields {
			if f == "us" && i > 0 {
				var v float64
				if _, err := fmt.Sscanf(fields[i-1], "%f", &v); err != nil || v <= 0 {
					t.Fatalf("non-positive native latency in line %q", line)
				}
			}
		}
	}
}

// TestNativeExperimentPoint: one experiment-style measurement on the native
// backend yields positive wall-clock latency.
func TestNativeExperimentPoint(t *testing.T) {
	cmps := bench.RegistryComparators(core.KindBarrier)
	p, err := bench.MeasureBackend("4(2)", "native", cmps[0], 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Latency <= 0 {
		t.Fatalf("native point has non-positive latency: %+v", p)
	}
}

// TestSimBenchSmoke: the -simbench path renders one row per sim-core
// workload with positive event counts.
func TestSimBenchSmoke(t *testing.T) {
	var buf strings.Builder
	if err := runSimBench(&buf, "", ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range append(bench.SimCoreWorkloads(), "events/sec", "wall_s/sim_s") {
		if !strings.Contains(out, want) {
			t.Fatalf("simbench output missing %q:\n%s", want, out)
		}
	}
}

// TestScaleStudyDeterministic: two full -scale sweeps with the same
// arguments are byte-identical — everything in a scale table is modeled
// time or event counts, never wall clock. Tier-1 pins small image counts;
// the 4k shape the README quotes is pinned by TestScaleStudy4kDeterministic.
func TestScaleStudyDeterministic(t *testing.T) {
	run := func() string {
		var buf strings.Builder
		if err := runScaleStudy(&buf, "64,128", "", 4, 1); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("scale study not byte-deterministic:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	for _, want := range []string{"barrier", "allreduce", "tdlb", "2level", "log2(N)"} {
		if !strings.Contains(a, want) {
			t.Fatalf("scale output missing %q:\n%s", want, a)
		}
	}
}

// TestScaleStudyKindFilter: -scale-kinds restricts the sweep to the named
// kinds and rejects unknown names.
func TestScaleStudyKindFilter(t *testing.T) {
	var buf strings.Builder
	if err := runScaleStudy(&buf, "64", "barrier", 1, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "scale study: barrier") {
		t.Fatalf("filtered output missing barrier table:\n%s", out)
	}
	if strings.Contains(out, "allreduce") {
		t.Fatalf("filter leaked other kinds:\n%s", out)
	}
	buf.Reset()
	if err := runScaleStudy(&buf, "64", "nokind", 1, 1); err == nil {
		t.Fatal("unknown -scale-kinds accepted")
	}
}

// TestScaleStudy4kDeterministic: the acceptance-scale run — the full
// 4096-image sweep across every kind — completes and is byte-deterministic.
// Costs ~15s per run, so it is skipped under -short.
func TestScaleStudy4kDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("4k scale sweep skipped under -short")
	}
	run := func() string {
		var buf strings.Builder
		if err := runScaleStudy(&buf, "4096", "", 8, 2); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("4k scale study not byte-deterministic across runs")
	}
	if !strings.Contains(a, "4096") || !strings.Contains(a, "  512") {
		t.Fatalf("4k scale output missing expected shape:\n%s", a)
	}
}

// TestTrajectoryFileShape validates the checked-in BENCH_sim.json: the
// sim-core trajectory must parse, carry the canonical workload list, and
// hold at least the two entries this kernel rework recorded (pre-PR
// baseline, post-rework) with plausible deterministic fields. The rework's
// headline claim — ≥2x events/sec on teams-alg-sweep — is pinned as data.
func TestTrajectoryFileShape(t *testing.T) {
	tr, err := bench.LoadTrajectory("../../BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Bench != "sim-core" {
		t.Fatalf("bench = %q, want sim-core", tr.Bench)
	}
	want := bench.SimCoreWorkloads()
	if len(tr.Workloads) != len(want) {
		t.Fatalf("workloads = %v, want %v", tr.Workloads, want)
	}
	if len(tr.Entries) < 2 {
		t.Fatalf("trajectory has %d entries, want >= 2 (baseline + rework)", len(tr.Entries))
	}
	for _, e := range tr.Entries {
		if e.Label == "" {
			t.Fatal("trajectory entry with empty label")
		}
		if len(e.Points) != len(want) {
			t.Fatalf("entry %q has %d points, want %d", e.Label, len(e.Points), len(want))
		}
		for i, p := range e.Points {
			if p.Workload != want[i] {
				t.Fatalf("entry %q point %d is %q, want %q", e.Label, i, p.Workload, want[i])
			}
			if p.Events <= 0 || p.SimNS < 0 || p.WallNS <= 0 || p.EventsPerSec <= 0 {
				t.Fatalf("entry %q point %+v has implausible fields", e.Label, p)
			}
		}
	}
	base, rework := tr.Entries[0].Points[0], tr.Entries[1].Points[0]
	if ratio := rework.EventsPerSec / base.EventsPerSec; ratio < 2 {
		t.Fatalf("recorded teams-alg-sweep speedup is %.2fx, want >= 2x (baseline %.0f, rework %.0f ev/s)",
			ratio, base.EventsPerSec, rework.EventsPerSec)
	}
}
