package main

import (
	"cafteams/internal/coll"
	"cafteams/internal/core"
	"cafteams/internal/team"
)

// inputs is everything a run generates from its seed. The runtime only
// ever sees these generated values; every value is a small integer, so
// float64 sums and prefix sums are exact and outputs compare bit for bit.
type inputs struct {
	seed  int64
	small int // elements of the small vector
	large int // elements of the large vector
	// corrupt plants a wrong serial reference (tests only): every check
	// must then fail.
	corrupt bool
	// quick shrinks every workload's worlds so tests run in seconds; the
	// code paths are the same.
	quick bool
}

// Vector lengths are fixed, not drawn from the seed: a seed changes values,
// roots and entry skew, which move every modeled time a little, while a
// seeded length would reorder the cells and make medians jump between
// seeds.
const (
	smallElems = 8
	largeElems = 128
	// maxSkewFlops bounds the seeded compute (up to about 0.12 µs on the
	// paper cluster) each image does before entering a sweep episode, so
	// images do not enter in lock step. Any skew breaks the model's
	// lock-step ties; a larger one moves the modeled times no further.
	maxSkewFlops = 64
)

func newInputs(seed int64, quick, corrupt bool) *inputs {
	return &inputs{seed: seed, small: smallElems, large: largeElems, quick: quick, corrupt: corrupt}
}

// hash mixes the seed and four coordinates (splitmix64 finalizer).
func (in *inputs) hash(stream, a, b, c int) uint64 {
	x := uint64(in.seed)*0x9e3779b97f4a7c15 ^ uint64(stream)<<48 ^ uint64(a)<<32 ^ uint64(b)<<16 ^ uint64(c)
	x ^= uint64(a) * 0xbf58476d1ce4e5b9
	x ^= uint64(b) * 0x94d049bb133111eb
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// val returns an integer-valued input in [-8, 8].
func (in *inputs) val(stream, a, b, c int) float64 {
	return float64(int(in.hash(stream, a, b, c)%17) - 8)
}

// pick returns a seeded choice in [0, n).
func (in *inputs) pick(stream, a, n int) int { return int(in.hash(stream, a, 1, 1) % uint64(n)) }

// Input streams.
const (
	streamVec = iota + 1
	streamScatter
	streamAlltoall
	streamRoot
	streamApp
	streamSkew
)

// collOp is one image's state for one collective cell: its buffers, the
// serial reference of its output, and how to run one episode.
type collOp struct {
	kind  core.Kind
	alg   string // registry name or core.AlgAuto
	v     *team.View
	root  int
	in    []float64 // this image's input vector
	buf   []float64
	wide  []float64 // n*block output (allgather, gather, alltoall recv) or scatter send
	wide2 []float64 // alltoall send
	want  []float64 // expected output; nil when this image's output is unspecified
	pol   core.Policy
}

const sentinel = -1e300

// newCollOp prepares image v's buffers and serial reference for one
// episode of kind on team v with per-member vectors of elems elements.
// refs memoizes team-wide references by team id; the sim backend runs
// images one at a time, so it needs no lock.
func newCollOp(in *inputs, k core.Kind, alg string, v *team.View, elems, rootSel int, refs map[int64][]float64) *collOp {
	n := v.NumImages()
	members := v.T.Members()
	me := members[v.Rank]
	op := &collOp{kind: k, alg: alg, v: v, root: rootSel % n,
		pol: core.Policy{Level: core.LevelAuto, Tuning: core.AllAuto()}}
	x := func(g, i int) float64 { return in.val(streamVec, g, i, 0) }
	op.in = make([]float64, elems)
	for i := range op.in {
		op.in[i] = x(me, i)
	}
	op.buf = make([]float64, elems)
	teamSum := func() []float64 {
		if s, ok := refs[v.T.ID()]; ok {
			return s
		}
		s := make([]float64, elems)
		for _, g := range members {
			for i := range s {
				s[i] += x(g, i)
			}
		}
		refs[v.T.ID()] = s
		return s
	}
	switch k {
	case core.KindAllreduce:
		op.want = teamSum()
	case core.KindReduceTo:
		if v.Rank == op.root {
			op.want = teamSum()
		}
	case core.KindBroadcast:
		op.want = make([]float64, elems)
		for i := range op.want {
			op.want[i] = x(members[op.root], i)
		}
	case core.KindScan:
		op.want = make([]float64, elems)
		for r := 0; r <= v.Rank; r++ {
			for i := range op.want {
				op.want[i] += x(members[r], i)
			}
		}
	case core.KindAllgather, core.KindGather:
		op.wide = make([]float64, n*elems)
		if k == core.KindAllgather || v.Rank == op.root {
			op.want = make([]float64, n*elems)
			for j, g := range members {
				for i := 0; i < elems; i++ {
					op.want[j*elems+i] = x(g, i)
				}
			}
		}
	case core.KindScatter:
		op.wide = make([]float64, n*elems)
		rootG := members[op.root]
		if v.Rank == op.root {
			for j := 0; j < n; j++ {
				for i := 0; i < elems; i++ {
					op.wide[j*elems+i] = in.val(streamScatter, rootG, j, i)
				}
			}
		}
		op.want = make([]float64, elems)
		for i := range op.want {
			op.want[i] = in.val(streamScatter, rootG, v.Rank, i)
		}
	case core.KindAlltoall:
		op.wide = make([]float64, n*elems)
		op.wide2 = make([]float64, n*elems)
		op.want = make([]float64, n*elems)
		for j := 0; j < n; j++ {
			for i := 0; i < elems; i++ {
				op.wide2[j*elems+i] = in.val(streamAlltoall, me, j, i)
				op.want[j*elems+i] = in.val(streamAlltoall, members[j], v.Rank, i)
			}
		}
	}
	if in.corrupt && op.want != nil {
		op.want = append([]float64(nil), op.want...)
		op.want[0]++
	}
	return op
}

// run performs one episode: reset the buffers, then call into core.
func (op *collOp) run() {
	copy(op.buf, op.in)
	auto := op.alg == core.AlgAuto
	v, p, name := op.v, op.pol, op.alg
	switch op.kind {
	case core.KindBarrier:
		if auto {
			p.Barrier(v)
		} else {
			core.RunBarrier(name, v)
		}
	case core.KindAllreduce:
		if auto {
			core.PolicyAllreduce(p, v, op.buf, coll.Sum)
		} else {
			core.RunAllreduce(name, v, op.buf, coll.Sum)
		}
	case core.KindReduceTo:
		if auto {
			core.PolicyReduceTo(p, v, op.root, op.buf, coll.Sum)
		} else {
			core.RunReduceTo(name, v, op.root, op.buf, coll.Sum)
		}
	case core.KindBroadcast:
		if v.Rank != op.root {
			fill(op.buf)
		}
		if auto {
			core.PolicyBroadcast(p, v, op.root, op.buf)
		} else {
			core.RunBroadcast(name, v, op.root, op.buf)
		}
	case core.KindAllgather:
		fill(op.wide)
		if auto {
			core.PolicyAllgather(p, v, op.buf, op.wide)
		} else {
			core.RunAllgather(name, v, op.buf, op.wide)
		}
	case core.KindScatter:
		fill(op.buf)
		if auto {
			core.PolicyScatter(p, v, op.root, op.wide, op.buf)
		} else {
			core.RunScatter(name, v, op.root, op.wide, op.buf)
		}
	case core.KindGather:
		fill(op.wide)
		if auto {
			core.PolicyGather(p, v, op.root, op.buf, op.wide)
		} else {
			core.RunGather(name, v, op.root, op.buf, op.wide)
		}
	case core.KindAlltoall:
		fill(op.wide)
		if auto {
			core.PolicyAlltoall(p, v, op.wide2, op.wide)
		} else {
			core.RunAlltoall(name, v, op.wide2, op.wide)
		}
	case core.KindScan:
		if auto {
			core.PolicyScan(p, v, op.buf, coll.Sum, false)
		} else {
			core.RunScan(name, v, op.buf, coll.Sum, false)
		}
	}
}

// ok compares this image's output with the serial reference bit for bit.
func (op *collOp) ok() bool {
	if op.want == nil {
		return true
	}
	got := op.buf
	switch op.kind {
	case core.KindAllgather, core.KindGather, core.KindAlltoall:
		got = op.wide
	}
	return equal(got, op.want)
}

func fill(xs []float64) {
	for i := range xs {
		xs[i] = sentinel
	}
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
