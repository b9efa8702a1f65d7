package core

import (
	"testing"

	"cafteams/internal/coll"
	"cafteams/internal/pgas"
	"cafteams/internal/team"
	"cafteams/internal/topology"
)

// TestTwoViewsOfOneTeamShareCounters: team.Initial returns a fresh View on
// every call, so one image can hold two handles on the same team. A
// collective's episode numbers and arrival counts belong to the (team,
// image) pair, not to a handle: alternating episodes between the two views
// must behave exactly like running them all on one. Counters kept per view
// would restart at episode 1 on the second view while the team's flags
// already count the first view's episodes, so waits would pass early and
// read stale or half-written landing regions. Roots vary per episode and
// include non-leaders, so the role-dependent counts are exercised too.
func TestTwoViewsOfOneTeamShareCounters(t *testing.T) {
	const episodes, elems = 8, 3
	cases := []struct {
		name string
		run  func(v *team.View, ep int) []float64 // returns what this image must check, nil if nothing
		want func(rank, n, ep int) []float64
	}{
		{"bcast/binomial", func(v *team.View, ep int) []float64 {
			buf := twoViewsInput(v.Rank, ep)
			RunBroadcast("binomial", v, twoViewsRoot(ep, v.NumImages()), buf)
			return buf
		}, func(rank, n, ep int) []float64 { return twoViewsInput(twoViewsRoot(ep, n), ep) }},
		{"bcast/2level", func(v *team.View, ep int) []float64 {
			buf := twoViewsInput(v.Rank, ep)
			RunBroadcast("2level", v, twoViewsRoot(ep, v.NumImages()), buf)
			return buf
		}, func(rank, n, ep int) []float64 { return twoViewsInput(twoViewsRoot(ep, n), ep) }},
		{"reduceto/2level", func(v *team.View, ep int) []float64 {
			buf := twoViewsInput(v.Rank, ep)
			root := twoViewsRoot(ep, v.NumImages())
			RunReduceTo("2level", v, root, buf, coll.Sum)
			if v.Rank != root {
				return nil
			}
			return buf
		}, func(rank, n, ep int) []float64 {
			sum := make([]float64, elems)
			for r := 0; r < n; r++ {
				for i, x := range twoViewsInput(r, ep) {
					sum[i] += x
				}
			}
			return sum
		}},
		{"scatter/2level", func(v *team.View, ep int) []float64 {
			n := v.NumImages()
			root := twoViewsRoot(ep, n)
			var send []float64
			if v.Rank == root {
				for r := 0; r < n; r++ {
					send = append(send, twoViewsInput(r, ep)...)
				}
			}
			recv := make([]float64, elems)
			RunScatter("2level", v, root, send, recv)
			return recv
		}, func(rank, n, ep int) []float64 { return twoViewsInput(rank, ep) }},
	}
	for _, backend := range confBackends {
		for _, tc := range cases {
			tc := tc
			sc := confScenario{nodes: 3, perNode: 4, place: topology.PlaceBlock, backend: backend}
			t.Run(tc.name+"/"+backend, func(t *testing.T) {
				w := sc.world(t)
				n := w.NumImages()
				w.Run(func(im *pgas.Image) {
					views := [2]*team.View{team.Initial(w, im), team.Initial(w, im)}
					if views[0] == views[1] {
						t.Errorf("rank %d: team.Initial returned one view twice; the test needs two", im.Rank())
					}
					for ep := 0; ep < episodes; ep++ {
						v := views[ep%2]
						got := tc.run(v, ep)
						if got == nil {
							continue
						}
						want := tc.want(v.Rank, n, ep)
						for i := range want {
							if got[i] != want[i] {
								t.Errorf("rank %d ep%d (view %d): got %v, want %v", v.Rank, ep, ep%2, got, want)
								break
							}
						}
					}
				})
			})
		}
	}
}

// twoViewsRoot cycles the episode root through leaders and non-leaders.
func twoViewsRoot(ep, n int) int { return (ep * 5) % n }

// twoViewsInput is rank's distinct input vector in episode ep.
func twoViewsInput(rank, ep int) []float64 {
	return []float64{float64(100*ep + rank), float64(rank - ep), float64(ep*ep + 1)}
}
