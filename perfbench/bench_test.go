package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// quickRun runs one workload in quick mode and returns its summary line
// and the digest it printed.
func quickRun(t *testing.T, workload string, seed int64, trace, corrupt bool) (summary, string) {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: workload, seed: seed, seconds: 0.001, trace: trace, quick: true, corrupt: corrupt,
		spansOut: filepath.Join(t.TempDir(), "spans.jsonl")}
	if err := run(o, &out); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s summary
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("%s: last line is not the summary: %v\n%s", workload, err, lines[len(lines)-1])
	}
	var digest string
	for _, l := range lines {
		if d, ok := strings.CutPrefix(l, "digest: "); ok {
			digest = d
		}
	}
	return s, digest
}

// TestEveryWorkloadPrintsEveryMetric: a short run of every workload prints
// every end-to-end metric (untraced) and every per-layer metric (traced)
// with its unit, and passes its own checks.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, wl := range workloadNames() {
		for _, trace := range []bool{false, true} {
			s, _ := quickRun(t, wl, 3, trace, false)
			if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, trace, s.Correct, s.Attempted, s.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(s.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(s.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := s.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", wl, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, d.name, m.Value)
				}
			}
		}
	}
}

// TestPlantedWrongReferenceFails: with a wrong serial reference planted,
// every workload counts failures instead of aborting.
func TestPlantedWrongReferenceFails(t *testing.T) {
	for _, wl := range workloadNames() {
		s, _ := quickRun(t, wl, 3, false, true)
		if s.Correct || s.Failed == 0 {
			t.Errorf("%s: planted wrong reference not counted: correct=%v failed=%d", wl, s.Correct, s.Failed)
		}
		if s.Metrics["ops_ok_ratio"].Value >= 1 {
			t.Errorf("%s: ops_ok_ratio %v with failures", wl, s.Metrics["ops_ok_ratio"].Value)
		}
	}
}

// TestDeterministicFieldsMatchAcrossRuns: two runs of the same seed agree
// on the digest of every simulated statistic and on the modeled metrics;
// another seed changes the inputs and so the digest.
func TestDeterministicFieldsMatchAcrossRuns(t *testing.T) {
	for _, wl := range workloadNames() {
		a, da := quickRun(t, wl, 5, false, false)
		b, db := quickRun(t, wl, 5, false, false)
		if da == "" || da != db {
			t.Errorf("%s: digest %q then %q", wl, da, db)
		}
		if wl == "native-apps" {
			continue // its times are wall-clock
		}
		for _, name := range []string{"model_us_geomean", "model_us_auto_geomean", "turnaround_us_p50",
			"turnaround_us_p99", "coll_us_p50", "coll_us_p90", "solve_ms_p50"} {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %s %v then %v", wl, name, a.Metrics[name], b.Metrics[name])
			}
		}
		if _, dc := quickRun(t, wl, 6, false, false); dc == da {
			t.Errorf("%s: seeds 5 and 6 gave the same digest %s", wl, da)
		}
	}
}

// TestRecorderSelfTime: a parent's self time excludes the union of its
// host-timed children, and a disabled recorder records nothing.
func TestRecorderSelfTime(t *testing.T) {
	r := newRecorder()
	if id := r.begin("off", 0); id != 0 || r.count() != 0 {
		t.Fatalf("disabled recorder recorded span %d", id)
	}
	r.enable(true)
	p := r.begin("parent", 0)
	r.add("child", p, 10, 30, -1, -1)
	r.add("child", p, 20, 40, -1, -1) // concurrent with the first: merged
	r.add("image", p, -1, -1, 5, 9)
	r.spans[p-1].HostStart, r.spans[p-1].HostEnd = 0, 100
	_, total, self := r.selfTimes()
	if total["parent"] != 100e-9 || self["parent"] != 70e-9 || self["child"] != 40e-9 {
		t.Fatalf("total %v self %v", total, self)
	}
	if _, ok := total["image"]; ok {
		t.Fatalf("sim-only span has host time: %v", total)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := percentile(xs, 50); got != 2.5 {
		t.Fatalf("p50 = %v", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Fatalf("p100 = %v", got)
	}
	if got := geomean([]float64{2, 8}); got != 4 {
		t.Fatalf("geomean = %v", got)
	}
}
