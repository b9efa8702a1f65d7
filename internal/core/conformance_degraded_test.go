package core

// Degraded-mode conformance: after a pre-episode image failure, the
// survivors shrink the team and run the full collective sweep there. Every
// registered algorithm of every kind, blocking and split-phase, must produce
// bitwise-identical results to the serial reference computed over the
// survivor ranks — recovery is only worth anything if the shrunken team is
// a first-class team.
//
// One fixed scenario (3 nodes x 2 images, victim on the middle node) bounds
// the cost; the shapes themselves are swept fault-free by
// TestConformanceRandomized, and the survivor team here is exactly the kind
// of gappy, non-uniform topology the scheduler-placement sweep already
// stresses.

import (
	"fmt"
	"testing"

	"cafteams/internal/pgas"
	"cafteams/internal/team"
)

const degradedVictim = 2 // first image of node 1: nodes stay non-empty but uneven

func degradedScenario() confScenario {
	return confScenario{nodes: 3, perNode: 2, place: 0, elems: 5, seed: 0x5eed}
}

// runDegraded kills the victim before any episode runs, shrinks to the
// survivor team and runs the standard episode loop of one (kind, algorithm)
// pair there.
func runDegraded(t *testing.T, k Kind, name string, exclusive bool) {
	sc := degradedScenario()
	w := sc.world(t)
	if err := w.InjectFaults(&pgas.FaultPlan{Events: []pgas.FaultEvent{
		{At: 10 * pgas.Microsecond, Kind: pgas.FaultKillImage, Image: degradedVictim},
	}}); err != nil {
		t.Fatal(err)
	}
	w.Run(func(im *pgas.Image) {
		if im.Rank() == degradedVictim {
			im.Sleep(pgas.Second) // killed mid-nap, before contributing anywhere
			t.Errorf("victim survived")
			return
		}
		im.AwaitFailedImages(1)
		v := team.Initial(w, im).FormSurvivors()
		if v.T.Size() != 5 {
			t.Errorf("survivor team has %d members, want 5", v.T.Size())
			return
		}
		if k == KindBarrier {
			for ep := 0; ep < confEpisodes; ep++ {
				RunBarrier(name, v)
			}
			return
		}
		runConfEpisodes(t, sc, k, name, exclusive, v)
	})
}

func TestConformanceDegradedSurvivors(t *testing.T) {
	for _, k := range Kinds() {
		for _, name := range confLabels(k) {
			k, name := k, name
			t.Run(fmt.Sprintf("%s/%s", k, name), func(t *testing.T) {
				if k == KindScan {
					for _, exclusive := range []bool{false, true} {
						runDegraded(t, k, name, exclusive)
					}
					return
				}
				runDegraded(t, k, name, false)
			})
		}
	}
}
