package pgas

import (
	"fmt"
	"sync"
	"testing"
)

// touched lists the images whose slab of c has been created.
func touched[T any](c *Coarray[T]) []int {
	var out []int
	for r := range c.slabs {
		if p := c.slabs[r].Load(); p != nil && p != c.notOwned {
			out = append(out, r)
		}
	}
	return out
}

// TestCoarraySlabsCreatedOnFirstTouch: after traffic that only ever
// reaches the root, only the root's slab exists — on a world coarray and on
// a team coarray alike.
func TestCoarraySlabsCreatedOnFirstTouch(t *testing.T) {
	w := newTestWorld(t, 2, 2)
	var world, team *Coarray[float64]
	w.Run(func(im *Image) {
		world = NewCoarray[float64](w, "ft-world", 8)
		team = NewTeamCoarray[float64](w, "ft-team", 8, []int{0, 1, 2})
		if im.Rank() != 0 {
			Put(im, world, 0, 2*im.Rank(), []float64{1, 2}, ViaAuto)
			if im.Rank() <= 2 {
				Put(im, team, 0, 0, []float64{3}, ViaAuto)
			}
		}
		im.Quiet()
	})
	for _, c := range []*Coarray[float64]{world, team} {
		if got := touched(c); len(got) != 1 || got[0] != 0 {
			t.Errorf("%s: slabs exist on images %v, want only [0]", c.Name(), got)
		}
	}
	if got := fmt.Sprint(team.slab(0)[:1], world.slab(0)[2:]); got != "[3] [1 2 1 2 1 2]" {
		t.Errorf("root slabs after the puts: %s", got)
	}
	if !team.OwnedBy(1) || team.OwnedBy(3) {
		t.Error("ownership must follow the member list, not first touch")
	}
}

// TestCoarrayFirstTouchReadsZero: a slab first reached by Local or by Get
// is created zeroed.
func TestCoarrayFirstTouchReadsZero(t *testing.T) {
	w := newTestWorld(t, 2, 2)
	w.Run(func(im *Image) {
		co := NewTeamCoarray[int64](w, "ft-zero", 4, []int{0, 1, 2, 3})
		var got []int64
		switch im.Rank() {
		case 0:
			got = Local(co, im)
		case 1:
			got = make([]int64, 4)
			for i := range got {
				got[i] = -1
			}
			Get(im, co, 3, 0, got) // image 3's slab: nobody else touches it
		default:
			return
		}
		for i, x := range got {
			if x != 0 {
				t.Errorf("image %d: first-touch read elem %d = %d, want 0", im.Rank(), i, x)
			}
		}
	})
}

// TestNativeCoarrayFirstTouchConcurrent: every native image puts into one
// untouched slab at the same moment. Exactly one allocation must win the
// publication, so every image's write lands in the slab the owner reads.
// Run with -race.
func TestNativeCoarrayFirstTouchConcurrent(t *testing.T) {
	w := newNativeTestWorld(t, 4, 8)
	n := w.NumImages()
	co := NewCoarray[int64](w, "ft-concurrent", n)
	fl := NewFlags(w, "ft-concurrent-fl", 1)
	var start sync.WaitGroup
	start.Add(n)
	w.Run(func(im *Image) {
		start.Done()
		start.Wait() // release every image into the first touch together
		PutThenNotify(im, co, 0, im.Rank(), []int64{int64(im.Rank()) + 1}, fl, 0, 1, ViaAuto)
		if im.Rank() != 0 {
			return
		}
		im.WaitFlagGE(fl, 0, 0, int64(n))
		for r, x := range Local(co, im) {
			if x != int64(r)+1 {
				t.Errorf("slot %d = %d, want %d: a write went to a losing slab", r, x, r+1)
			}
		}
	})
	if got := touched(co); len(got) != 1 || got[0] != 0 {
		t.Errorf("slabs exist on images %v, want only [0]", got)
	}
}
