package bench

import (
	"runtime"
	"testing"

	"cafteams/internal/core"
)

// allocatedBy returns the heap bytes allocated while one MeasureScale call
// runs (the runtime's cumulative TotalAlloc, so a GC in between does not
// hide anything).
func allocatedBy(t *testing.T, k core.Kind, alg string, images, iters int) uint64 {
	t.Helper()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	if _, err := MeasureScale(k, alg, images, 8, iters); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m)
	return m.TotalAlloc - before
}

// TestScaleMemoryFlat is the gate for flat per-image memory: every -scale
// kind's heap bytes per image at 4096 images stay within 1.5x of the value
// at 1024 images. Per-image O(team) state (a member list copied on every
// image, a slab laid out on images that never touch it, a [0..N) slice
// built per episode) shows here as a ratio near 4.
func TestScaleMemoryFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 4096-image worlds")
	}
	for _, ka := range ScaleKindAlgs() {
		if ka.Kind == core.KindReduceTo {
			// The sender-keyed reduce-to-one protocol keeps 2·|group|
			// landing regions per member (coll/reduceto.go), the one
			// O(N) per-image site left; ROADMAP item 2 tracks it.
			continue
		}
		for _, alg := range ka.Algs {
			small := float64(allocatedBy(t, ka.Kind, alg, 1024, 2)) / 1024
			large := float64(allocatedBy(t, ka.Kind, alg, 4096, 2)) / 4096
			t.Logf("%s/%s: %.0f B/image at 1024, %.0f at 4096 (%.2fx)", ka.Kind, alg, small, large, large/small)
			if large > 1.5*small {
				t.Errorf("%s/%s: %.0f B/image at 4096 images vs %.0f at 1024 (%.2fx > 1.5x)",
					ka.Kind, alg, large, small, large/small)
			}
		}
	}
}

// TestEpisodeAllocationFlat checks that steady-state host allocation per
// image per episode does not grow with the team: an 18-episode run minus a
// 2-episode run, divided by the 16 extra episodes and the image count, at
// 512 images stays within 1.25x (plus 16 B) of the value at 64 images.
func TestEpisodeAllocationFlat(t *testing.T) {
	perEpisode := func(k core.Kind, alg string, images int) float64 {
		// A discarded first run takes one-time allocations (lazily built
		// process-wide tables) out of the difference.
		allocatedBy(t, k, alg, images, 2)
		short := allocatedBy(t, k, alg, images, 2)
		long := allocatedBy(t, k, alg, images, 18)
		return (float64(long) - float64(short)) / 16 / float64(images)
	}
	for _, ka := range ScaleKindAlgs() {
		for _, alg := range ka.Algs {
			small := perEpisode(ka.Kind, alg, 64)
			large := perEpisode(ka.Kind, alg, 512)
			t.Logf("%s/%s: %.0f B/image/episode at 64, %.0f at 512", ka.Kind, alg, small, large)
			if large > 1.25*small+16 {
				t.Errorf("%s/%s: %.0f B/image/episode at 512 images vs %.0f at 64 (> 1.25x + 16 B)",
					ka.Kind, alg, large, small)
			}
		}
	}
}
