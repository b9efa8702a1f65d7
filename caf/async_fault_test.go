package caf

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"cafteams/internal/pgas"
)

// runKillDuringAsync kills a node leader while every image has a CoSumAsync
// in flight: the victim's operation is suspended (it sleeps instead of
// progressing), so no survivor can complete and each observes the failure
// as StatFailedImage from Wait. The run reports the kill as a
// *FailedRunError, and no operation coroutine — the victim's or the
// survivors' abandoned ones — outlives the run.
func runKillDuringAsync(t *testing.T, cfg Config, killAt, victimNap pgas.Time) {
	t.Helper()
	const victim = 5 // global image 5: leader of node 1 in 8(2)
	cfg.Spec = "8(2)"
	cfg.FaultPlan = &FaultPlan{Events: []FaultEvent{
		{At: killAt, Kind: FaultKillImage, Image: victim - 1},
	}}
	baseline := runtime.NumGoroutine()
	rep, err := Run(cfg, func(im *Image) {
		a := []float64{float64(im.ThisImage())}
		h := im.CoSumAsync(a)
		if im.ThisImage() == victim {
			im.Sleep(victimNap) // killed mid-nap with its operation suspended
			t.Errorf("victim image %d survived the kill", victim)
			return
		}
		im.Compute(1e4)
		if st := im.WithStat(h.Wait); st != StatFailedImage {
			t.Errorf("image %d: Wait with a dead leader returned %v, want %v", im.ThisImage(), st, StatFailedImage)
		}
	})
	var fre *FailedRunError
	if !errors.As(err, &fre) {
		t.Fatalf("Run error = %v, want *FailedRunError", err)
	}
	if len(rep.Failures) != 1 || rep.Failures[0].Rank != victim-1 || rep.Failures[0].Cause != pgas.CauseKilled {
		t.Fatalf("failures = %+v, want image %d killed", rep.Failures, victim)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSimKillDuringSplitPhaseCoSum(t *testing.T) {
	runKillDuringAsync(t, Config{Backend: BackendSim}, 5*pgas.Microsecond, pgas.Second)
}

func TestNativeKillDuringSplitPhaseCoSum(t *testing.T) {
	runKillDuringAsync(t, Config{Backend: BackendNative},
		pgas.Time((2 * time.Millisecond).Nanoseconds()),
		pgas.Time((20 * time.Millisecond).Nanoseconds()))
}
