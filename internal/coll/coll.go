// Package coll implements the *flat* (hierarchy-oblivious) collective
// algorithms the paper uses as baselines — centralized linear, dissemination,
// binomial tree and tournament barriers; linear, binomial-tree,
// recursive-doubling and ring all-to-all reductions; linear, binomial and
// scatter-allgather broadcasts; linear and binomial scatters and gathers;
// pairwise-exchange and Bruck personalized all-to-alls; linear and
// distance-doubling prefix reductions — plus the plumbing every algorithm,
// flat or hierarchy-aware (internal/core), builds on: State, an algorithm's
// per-team flags and per-image counters, and Scratch, its role-scoped
// landing coarrays.
//
// Flat algorithms address every peer uniformly through the portable conduit
// path (pgas.ViaConduit), exactly like a runtime with no knowledge of which
// images share a node. Their synchronization uses the "sync_flags carry"
// idiom: flags are monotone counters and an episode only raises the wait
// threshold, so each round needs a single wait (the paper's refinement over
// the two-wait scheme of Hensgen et al.).
//
// Like internal/core, this package is backend-agnostic — internal/pgas is
// its only way down, never internal/sim. The boundary is enforced
// mechanically by internal/lint's layers analyzer (cmd/caflint under
// go vet), replacing the old hand-verified convention.
package coll

import (
	"math/bits"
	"strconv"

	"cafteams/internal/pgas"
	"cafteams/internal/team"
)

// Number constrains the element types the predefined reductions (sum, max,
// min) operate on: every Go numeric type with a total order under < and +.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64
}

// Op combines src into dst element-wise (dst = dst ⊕ src). Operations must
// be associative and commutative; the runtime may combine partial vectors in
// any order.
type Op[T any] struct {
	Name    string
	Combine func(dst, src []T)
}

// SumOp returns the element-wise summation operation over T (co_sum).
func SumOp[T Number]() Op[T] {
	return Op[T]{Name: "sum", Combine: func(dst, src []T) {
		for i := range dst {
			dst[i] += src[i]
		}
	}}
}

// MaxOp returns the element-wise maximum operation over T (co_max).
func MaxOp[T Number]() Op[T] {
	return Op[T]{Name: "max", Combine: func(dst, src []T) {
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	}}
}

// MinOp returns the element-wise minimum operation over T (co_min).
func MinOp[T Number]() Op[T] {
	return Op[T]{Name: "min", Combine: func(dst, src []T) {
		for i := range dst {
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	}}
}

// Predefined float64 reduction operations (the CAF co_sum, co_max, co_min
// intrinsics at the default element type).
var (
	Sum = SumOp[float64]()
	Max = MaxOp[float64]()
	Min = MinOp[float64]()
)

// tag names T for state keys: a float64 and an int64 collective on the same
// team must not share flag arrays or episode counters.
func tag[T any]() string { return pgas.TypeName[T]() }

// State is the sync state of one collective algorithm on one team — the
// paper's per-team "cocounters" (Algorithm 1) for every algorithm, flat and
// hierarchy-aware alike. Flags holds the flag slots the images notify each
// other on. Each member also owns counters: its episode number, and one
// cumulative count per flag slot of the notifications it expects there.
// The per-slot counts are the member's slab of a team coarray, created on
// first touch, so an image that never counts (every image of a barrier, a
// non-leader in a leaders-only phase) holds none. Counters live in the
// world registry keyed by (team, image), never by View: two views of one
// team share them.
//
// Counting arrivals exactly, rather than deriving them from the episode
// number, is what keeps waits right when an image's role varies between
// episodes (it is sometimes the root). The two counting idioms are Await
// (receiver side) and Gate (sender side of a credit slot).
type State struct {
	Flags *pgas.Flags
	// ep[r] is member r's episode number. It is kept apart from the
	// per-slot counts so a slab of slots counts is exactly 8·slots bytes
	// (one more word would push reduceto's 3·|group|-slot slab into the
	// next allocation size class).
	ep     []int64
	counts *pgas.Coarray[int64]
}

// GetState returns the state of algorithm alg on v's team with slots flag
// slots per image. The per-view memo makes repeat calls (one per episode,
// per image) free of key formatting and registry traffic.
func GetState(v *team.View, alg string, slots int) *State {
	return v.Memo(team.MemoKey{Kind: "coll:state", Alg: alg}, func() interface{} {
		w := v.Img.World()
		key := "coll:" + alg + ":team" + strconv.FormatInt(v.T.ID(), 10)
		return pgas.LookupOrCreate(w, key, func() interface{} {
			return &State{
				Flags:  pgas.NewFlags(w, key, slots),
				ep:     make([]int64, v.T.Size()),
				counts: pgas.NewTeamCoarray[int64](w, key, slots, v.T.Members()),
			}
		})
	}).(*State)
}

// Next starts the caller's next episode and returns its number (1, 2, ...).
func (s *State) Next(v *team.View) int64 {
	s.ep[v.Rank]++
	return s.ep[v.Rank]
}

// Await adds n to the caller's expected arrivals on flag slot slot, then
// waits until all of them have arrived.
func (s *State) Await(v *team.View, slot int, n int64) {
	c := pgas.Local(s.counts, v.Img)
	c[slot] += n
	v.Img.WaitFlagGE(s.Flags, v.Img.Rank(), slot, c[slot])
}

// Gate is the sender side of a credit slot, called before the caller sends
// n messages whose landing regions are reused every other episode: it waits
// for the credits of every earlier send on slot (one per consumed send),
// then counts the n new ones. With n = 1 this is "before my k-th
// same-parity send, wait for k−1 credits".
func (s *State) Gate(v *team.View, slot int, n int64) {
	c := pgas.Local(s.counts, v.Img)
	if c[slot] > 0 {
		v.Img.WaitFlagGE(s.Flags, v.Img.Rank(), slot, c[slot])
	}
	c[slot] += n
}

// rounds returns ceil(log2 n): the number of dissemination /
// recursive-doubling rounds for n participants.
func rounds(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// floorPow2 returns the largest power of two <= n.
func floorPow2(n int) int {
	if n <= 0 {
		return 0
	}
	return 1 << (bits.Len(uint(n)) - 1)
}

// sizeClass rounds n up to a power of two, 16 at least: the scratch region
// size every layout derives its offsets from, so repeated calls with
// varying vector lengths reuse one allocation per class.
func sizeClass(n int) int {
	if n <= 16 {
		return 16
	}
	return 1 << bits.Len(uint(n-1))
}

// Scratch returns one role's scratch coarray for algorithm alg on v's team,
// and its region size cap = sizeClass(elems): regions regions of cap
// elements per episode parity, parity p's regions starting at
// p·regions·cap. Each role of a layout (a root's or leader's inbox, a
// member's result landing...) gets its own coarray and slabs are created on
// first touch, so an image allocates only the regions its role uses. role
// is a constant tag naming the role.
func Scratch[T any](v *team.View, alg, role string, elems, regions int) (*pgas.Coarray[T], int) {
	cap_ := sizeClass(elems)
	x := v.Memo(team.MemoKey{Kind: role, Alg: alg, N: cap_, M: regions}, func() interface{} {
		return newScratch[T](v, alg, role, cap_, regions)
	})
	if co, ok := x.(*pgas.Coarray[T]); ok {
		return co, cap_
	}
	// Memo slot taken by another element type for the same (alg, role,
	// class): fall through to the registry, which keys on the type as well.
	return newScratch[T](v, alg, role, cap_, regions), cap_
}

func newScratch[T any](v *team.View, alg, role string, cap_, regions int) *pgas.Coarray[T] {
	name := role + ":" + alg + ":team" + strconv.FormatInt(v.T.ID(), 10) + ":cap" + strconv.Itoa(cap_)
	return pgas.NewTeamCoarray[T](v.Img.World(), name, cap_*2*regions, v.T.Members())
}
