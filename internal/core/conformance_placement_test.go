package core

// Conformance on scheduler-produced placements: the cluster placement
// policies hand out whatever cores are free, so a job's topology can be
// gappy (node ids with holes) and non-rank-contiguous (rank order does not
// follow node order). Every registered algorithm of every kind must stay
// bitwise correct on such shapes, not just on the synthetic block/cyclic
// layouts the randomized sweep generates.

import (
	"fmt"
	"math/rand"
	"testing"

	"cafteams/internal/cluster"
	"cafteams/internal/machine"
	"cafteams/internal/team"
	"cafteams/internal/topology"
)

// placementScenarios builds topologies the way the scheduler does: a
// resident job pins assorted cores on a small cluster, then the spread and
// k-choices policies place a new job around it.
func placementScenarios(t *testing.T) []confScenario {
	t.Helper()
	cl, err := cluster.New(machine.PaperCluster(), 5, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	resident := []topology.Loc{
		{Node: 0, Core: 1}, {Node: 0, Core: 2},
		{Node: 1, Core: 0}, {Node: 3, Core: 3},
	}
	if err := cl.Allocate(resident); err != nil {
		t.Fatal(err)
	}
	state := func() *cluster.State {
		st := &cluster.State{
			CoresPerNode: cl.CoresPerNode(),
			Free:         make([][]int, cl.Nodes()),
			TenantNodes:  map[int][]int{},
		}
		for n := 0; n < cl.Nodes(); n++ {
			st.Free[n] = cl.FreeCoreIDs(n)
		}
		return st
	}

	var scs []confScenario
	for i, tc := range []struct {
		name   string
		pol    cluster.Policy
		images int
	}{
		{"spread", cluster.Spread(), 6},
		// 12 images exhaust both fully-idle nodes, forcing the k-sampled
		// path whose node order does not track rank order.
		{"kchoices", cluster.KChoices(2, rand.New(rand.NewSource(11))), 12},
	} {
		locs, ok := tc.pol.Place(state(), &cluster.Job{ID: i, Images: tc.images})
		if !ok {
			t.Fatalf("%s failed to place %d images with %d cores free", tc.name, tc.images, cl.TotalFree())
		}
		topo, err := cl.Topology(locs)
		if err != nil {
			t.Fatal(err)
		}
		contiguous := true
		for img := 1; img < topo.NumImages(); img++ {
			if topo.NodeOf(img) < topo.NodeOf(img-1) {
				contiguous = false
			}
		}
		if contiguous {
			t.Fatalf("%s placement %v is rank-contiguous; scenario would not stress anything new", tc.name, locs)
		}
		scs = append(scs, confScenario{
			elems: 5,
			seed:  9001 + int64(i)*7919,
			label: "sched-" + tc.name,
			topo:  topo,
		})
	}
	return scs
}

// TestConformanceOnSchedulerPlacements sweeps every (kind, algorithm) pair
// over spread- and k-choices-produced placements, bitwise against the
// serial reference.
func TestConformanceOnSchedulerPlacements(t *testing.T) {
	scs := placementScenarios(t)
	if testing.Short() {
		scs = scs[:1]
	}
	for _, sc := range scs {
		sc := sc
		t.Run(sc.String(), func(t *testing.T) {
			for _, k := range Kinds() {
				for _, name := range confLabels(k) {
					k, name := k, name
					t.Run(fmt.Sprintf("%s/%s", k, name), func(t *testing.T) {
						switch {
						case k == KindBarrier:
							checkBarrier(t, sc.world(t), fmt.Sprintf("%s/barrier/%s", sc, name),
								func(v *team.View) { RunBarrier(name, v) }, confEpisodes)
						case k == KindScan:
							for _, exclusive := range []bool{false, true} {
								runConformanceData(t, sc, k, name, exclusive)
							}
						default:
							runConformanceData(t, sc, k, name, false)
						}
					})
				}
			}
		})
	}
}
