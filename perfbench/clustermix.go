package main

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"cafteams/caf"
	"cafteams/internal/cluster"
	"cafteams/internal/machine"
	"cafteams/internal/sim"
	"cafteams/internal/topology"
)

// The cluster-mix machine and job streams. A pass replays mixStreams
// independent streams of mixJobs jobs, each on a fresh machine: a shared
// environment keeps every finished job's world reachable until it is
// dropped, so one long stream would hold all of them at once.
const (
	mixNodes, mixSockets, mixCores = 8, 2, 4
	mixStreams                     = 16
	mixJobs                        = 300
	mixClients                     = 6
	mixThink                       = 50 * sim.Microsecond
	mixK                           = 3
	mixPopulationSeed              = 1
)

// mixStream returns the jobs of stream i in submission order. Their
// population (tenant, kind, size) comes from the load generator under a
// fixed seed; the run's seed shuffles their order. A seed thus changes
// which jobs meet on the machine, but not the total work offered, which
// would otherwise dominate the run-to-run spread of every modeled metric.
func mixStream(in *inputs, i int) ([]cluster.Job, error) {
	lg, err := cluster.NewLoadGen(rand.New(rand.NewSource(mixPopulationSeed+int64(i))), cluster.DefaultProfiles(), mixThink)
	if err != nil {
		return nil, err
	}
	jobs := lg.Jobs(in.mixJobs())
	rng := rand.New(rand.NewSource(streamSeed(in, i)))
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	for k := range jobs {
		jobs[k].Images = min(jobs[k].Images, mixNodes*mixSockets*mixCores)
	}
	return jobs, nil
}

// mixLoop submits a stream closed-loop: mixClients clients each submit
// their next job a seeded think time after their previous one finished, so
// the machine stays contended without a backlog that grows with the run.
type mixLoop struct {
	sched   *cluster.Scheduler
	env     *sim.Env
	rng     *rand.Rand
	queue   [][]cluster.Job // per client, in submission order
	client  map[int]int     // job id -> client
	pending []int           // per client: index of its next job
}

func newMixLoop(in *inputs, i int, jobs []cluster.Job) *mixLoop {
	l := &mixLoop{rng: rand.New(rand.NewSource(streamSeed(in, i) + 1)), queue: make([][]cluster.Job, mixClients),
		client: map[int]int{}, pending: make([]int, mixClients)}
	for k, j := range jobs {
		l.queue[k%mixClients] = append(l.queue[k%mixClients], j)
		l.client[j.ID] = k % mixClients
	}
	return l
}

func (l *mixLoop) think() sim.Time { return sim.Time(l.rng.Int63n(int64(2 * mixThink))) }

// start submits every client's first job.
func (l *mixLoop) start(sched *cluster.Scheduler, env *sim.Env) {
	l.sched, l.env = sched, env
	for c := range l.queue {
		l.submitNext(c, 0)
	}
}

func (l *mixLoop) submitNext(c int, now sim.Time) {
	if l.pending[c] >= len(l.queue[c]) {
		return
	}
	j := l.queue[c][l.pending[c]]
	l.pending[c]++
	j.Arrival = now + l.think()
	l.sched.Submit([]cluster.Job{j})
}

// done runs in simulation context when job id finished.
func (l *mixLoop) done(id int) { l.submitNext(l.client[id], l.env.Now()) }

func (in *inputs) mixStreams() int {
	if in.quick {
		return 1
	}
	return mixStreams
}

func (in *inputs) mixJobs() int {
	if in.quick {
		return 40
	}
	return mixJobs
}

// streamSeed derives stream i's seed from the run's seed.
func streamSeed(in *inputs, i int) int64 { return in.seed*2*mixStreams + 2*int64(i) }

// timedPolicy wraps a placement policy and accumulates the host time its
// Place calls take.
type timedPolicy struct {
	cluster.Policy
	host time.Duration
}

func (p *timedPolicy) Place(s *cluster.State, job *cluster.Job) ([]topology.Loc, bool) {
	t0 := time.Now()
	locs, ok := p.Policy.Place(s, job)
	p.host += time.Since(t0)
	return locs, ok
}

// jobOut is what one job's images observed: modeled per-call latencies by
// collective kind (image 1), every image's call latencies, and checks.
type jobOut struct {
	collNS  map[string]int64
	collN   map[string]int64
	callUS  []float64
	bad     bool
	failed  int
	episode int64
}

// mixBody returns the SPMD body of a job: the cluster package's four job
// kinds with integer-valued inputs, every collective output checked against
// its serial reference.
func mixBody(in *inputs, job cluster.Job, out *jobOut, rec *recorder, parent int32) func(im *caf.Image) {
	x := func(img, it, i int) float64 { return in.val(streamApp, 100+job.ID, img*1000+it, i) }
	timed := func(im *caf.Image, kind string, fn func()) {
		s := im.Now()
		fn()
		d := im.Now() - s
		out.callUS = append(out.callUS, float64(d)/1e3)
		rec.add("caf."+kind, parent, -1, -1, s, s+d)
		if im.ThisImage() == 1 {
			out.collNS[kind] += d
			out.collN[kind]++
			out.episode++
		}
	}
	check := func(ok bool) {
		if !ok || in.corrupt {
			out.bad = true
		}
	}
	sumOver := func(n, it, i int) float64 {
		s := 0.0
		for img := 1; img <= n; img++ {
			s += x(img, it, i)
		}
		return s
	}
	switch job.Kind {
	case cluster.JobAllreduce:
		return func(im *caf.Image) {
			me, n := im.ThisImage(), im.NumImages()
			buf := make([]float64, job.Elems)
			for it := 0; it < job.Iters; it++ {
				for i := range buf {
					buf[i] = x(me, it, i%8)
				}
				im.Compute(float64(job.Elems) * 8)
				timed(im, "allreduce", func() { im.CoSum(buf) })
				for i := 0; i < 8 && i < len(buf); i++ {
					check(buf[i] == sumOver(n, it, i))
				}
			}
		}
	case cluster.JobTranspose:
		return func(im *caf.Image) {
			me, n := im.ThisImage(), im.NumImages()
			block := job.Elems/n + 1
			send := make([]float64, n*block)
			recv := make([]float64, n*block)
			for it := 0; it < job.Iters; it++ {
				for j := 0; j < n; j++ {
					for i := 0; i < block; i++ {
						send[j*block+i] = x(me, it, j*block+i)
					}
				}
				off := []float64{float64(block)}
				timed(im, "scan", func() { im.CoScan(off, true) })
				if me > 1 {
					check(off[0] == float64((me-1)*block))
				}
				timed(im, "alltoall", func() { im.CoAlltoall(send, recv) })
				for j := 0; j < n; j++ {
					check(recv[j*block] == x(j+1, it, (me-1)*block))
				}
				im.Compute(float64(n*block) * 2)
			}
		}
	case cluster.JobHeat2D:
		return func(im *caf.Image) {
			me, n := im.ThisImage(), im.NumImages()
			for it := 0; it < job.Iters; it++ {
				timed(im, "barrier", im.SyncAll)
				im.Compute(float64(job.Elems) * 5)
				res := []float64{x(me, it, 0)}
				timed(im, "allreduce", func() { im.CoMax(res) })
				want := x(1, it, 0)
				for img := 2; img <= n; img++ {
					want = max(want, x(img, it, 0))
				}
				check(res[0] == want)
				step := []float64{sentinel}
				if me == 1 {
					step[0] = x(1, it, 1)
				}
				timed(im, "broadcast", func() { im.CoBroadcast(step, 1) })
				check(step[0] == x(1, it, 1))
			}
		}
	default: // cluster.JobCG
		return func(im *caf.Image) {
			me, n := im.ThisImage(), im.NumImages()
			for it := 0; it < job.Iters; it++ {
				im.Compute(float64(job.Elems) * 4)
				rr := []float64{x(me, it, 0)}
				timed(im, "allreduce", func() { im.CoSum(rr) })
				check(rr[0] == sumOver(n, it, 0))
				im.Compute(float64(job.Elems))
				pq := []float64{x(me, it, 1)}
				timed(im, "allreduce", func() { im.CoSum(pq) })
				check(pq[0] == sumOver(n, it, 1))
			}
		}
	}
}

func newJobOut() *jobOut {
	return &jobOut{collNS: map[string]int64{}, collN: map[string]int64{}}
}

// jobConfig runs even-numbered jobs under the size-aware auto rule and odd
// ones under the default hierarchy policy.
func jobConfig(job cluster.Job) caf.Config {
	if job.ID%2 == 0 {
		return caf.Config{Tuning: caf.AutoTuning()}
	}
	return caf.Config{}
}

// newMixScheduler builds the shared machine and its k-choices scheduler.
func newMixScheduler(in *inputs, i int, start func(cl *cluster.Cluster) cluster.StartFunc) (*cluster.Cluster, *cluster.Scheduler, *timedPolicy, error) {
	cl, err := cluster.New(machine.PaperCluster(), mixNodes, mixSockets, mixCores)
	if err != nil {
		return nil, nil, nil, err
	}
	pol := &timedPolicy{Policy: cluster.KChoices(mixK, rand.New(rand.NewSource(streamSeed(in, i)+1)))}
	return cl, cluster.NewScheduler(cl, pol, start(cl)), pol, nil
}

// idealRun replays one finished job alone, with its placement, on a fresh
// machine of the same shape: the no-contention comparator.
func idealRun(in *inputs, r *cluster.JobResult) (*jobOut, error) {
	cl, err := cluster.New(machine.PaperCluster(), mixNodes, mixSockets, mixCores)
	if err != nil {
		return nil, err
	}
	topo, err := cl.Topology(r.Locs)
	if err != nil {
		return nil, err
	}
	out := newJobOut()
	var rec recorder // disabled: ideal replays are not traced
	if _, err := caf.LaunchOn(cl, topo, jobConfig(r.Job), "ideal", mixBody(in, r.Job, out, &rec, 0), func(rep caf.Report) {
		out.failed = len(rep.Failures)
	}); err != nil {
		return nil, err
	}
	if err := runRecover(func() {
		if err := cl.Env().Run(0); err != nil {
			panic(err)
		}
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// mixAgg sums one pass's layer measurements over its streams.
type mixAgg struct {
	shared, ideal map[string]cluster.CollStat
	waits, util   []float64
	sched         time.Duration
}

// runMixStream replays job stream i on a fresh shared machine, then every
// finished job alone as the ideal comparator.
func runMixStream(in *inputs, i int, t *tally, rec *recorder, parent int32, agg *mixAgg) error {
	jobs, err := mixStream(in, i)
	if err != nil {
		return err
	}
	outs := map[int]*jobOut{}
	reps := map[int]caf.Report{}
	loop := newMixLoop(in, i, jobs)
	cs := rec.begin("cell", parent)
	defer rec.end(cs)
	rs := rec.begin("env.Run", cs)
	cl, sched, pol, err := newMixScheduler(in, i, func(cl *cluster.Cluster) cluster.StartFunc {
		return func(job *cluster.Job, topo *topology.Topology, done func(cluster.JobStats)) cluster.JobHandle {
			out := newJobOut()
			outs[job.ID] = out
			j := *job
			h, err := caf.LaunchOn(cl, topo, jobConfig(j), fmt.Sprintf("s%d/job%d", i, j.ID), mixBody(in, j, out, rec, rs),
				func(rep caf.Report) {
					reps[j.ID] = rep
					defer loop.done(j.ID)
					st := cluster.JobStats{Coll: map[string]cluster.CollStat{}, FailedImages: len(rep.Failures)}
					for k, ns := range out.collNS {
						st.Coll[k] = cluster.CollStat{NS: ns, N: out.collN[k]}
					}
					done(st)
				})
			if err != nil {
				panic(fmt.Sprintf("launching %v: %v", j, err))
			}
			return h
		}
	})
	if err != nil {
		return err
	}
	loop.start(sched, cl.Env())
	t0 := time.Now()
	runErr := runRecover(func() {
		if err := cl.Env().Run(0); err != nil {
			panic(err)
		}
	})
	host := time.Since(t0).Seconds()
	rec.setSim(rs, 0, cl.Env().Now())
	rec.end(rs)
	results := sched.Results()
	t.attempted += int64(len(jobs))
	if runErr != nil {
		t.fail(int64(len(jobs)), "stream %d: %v", i, runErr)
		return nil
	}
	if len(results) != len(jobs) {
		t.fail(int64(len(jobs)-len(results)), "stream %d: %d of %d jobs never finished", i, len(jobs)-len(results), len(jobs))
	}
	t.jobs += int64(len(results))
	t.hostTimed += host
	t.events += cl.Env().Events()
	t.eventHost += host
	agg.sched += pol.host
	agg.util = append(agg.util, cluster.Summarize(cl, results).Utilization)
	for _, r := range results {
		out := outs[r.Job.ID]
		if out.bad || out.failed > 0 || len(reps[r.Job.ID].Failures) > 0 {
			t.fail(1, "stream %d job %v: outputs differ from the serial reference or images failed", i, r.Job)
		}
		t.episodes += out.episode
		t.imageWorlds += int64(r.Job.Images)
		t.callUS.add(out.callUS...)
		t.runUS = append(t.runUS, float64(r.Turnaround())/1e3)
		agg.waits = append(agg.waits, float64(r.Wait())/1e3)
		if r.Job.Kind == cluster.JobCG {
			t.solveMS = append(t.solveMS, float64(r.End-r.Start)/1e6)
		}
		var collNS int64
		for k, ns := range out.collNS {
			collNS += ns
			agg.shared[k] = addColl(agg.shared[k], ns, out.collN[k])
		}
		st := reps[r.Job.ID].Stats
		t.observe(cellStat{Key: fmt.Sprintf("s%d/job%d", i, r.Job.ID), Kind: r.Job.Kind.String(), Auto: r.Job.ID%2 == 0,
			Images: r.Job.Images, Episodes: out.episode, ModelNS: collNS, TurnNS: r.Turnaround(),
			IntraMsgs: st.IntraMsgs, InterMsgs: st.InterMsgs, IntraBytes: st.IntraBytes, InterBytes: st.InterBytes, det: true})

		io, err := idealRun(in, r)
		t.attempted++
		if err != nil || io.bad || io.failed > 0 {
			t.fail(1, "stream %d: ideal replay of %v failed: %v", i, r.Job, err)
			continue
		}
		t.imageWorlds += int64(r.Job.Images)
		for k, ns := range io.collNS {
			agg.ideal[k] = addColl(agg.ideal[k], ns, io.collN[k])
		}
	}
	return nil
}

func addColl(c cluster.CollStat, ns, n int64) cluster.CollStat {
	return cluster.CollStat{NS: c.NS + ns, N: c.N + n}
}

// clusterMix: seeded multi-tenant job streams on the shared 8x2x4
// machine, placed by k-choices, with every job replayed alone as the ideal
// comparator.
var clusterMix = &workload{
	setup: func(in *inputs, _ *tally) (int, error) {
		for i := 0; i < in.mixStreams(); i++ {
			jobs, err := mixStream(in, i)
			if err != nil {
				return 0, err
			}
			_, sched, _, err := newMixScheduler(in, i, func(*cluster.Cluster) cluster.StartFunc { return nil })
			if err != nil {
				return 0, err
			}
			newMixLoop(in, i, jobs).start(sched, nil)
		}
		return in.mixStreams() * mixNodes * mixSockets * mixCores, nil
	},
	pass: func(in *inputs, t *tally, rec *recorder) error {
		ws := rec.begin("workload", 0)
		defer rec.end(ws)
		agg := &mixAgg{shared: map[string]cluster.CollStat{}, ideal: map[string]cluster.CollStat{}}
		for i := 0; i < in.mixStreams(); i++ {
			// Drop the previous stream's worlds first (see mixStreams).
			debug.FreeOSMemory()
			if err := runMixStream(in, i, t, rec, ws, agg); err != nil {
				return err
			}
		}
		t.layer["cluster.sched_s"] = agg.sched.Seconds()
		t.layer["cluster.utilization"] = mean(agg.util)
		t.layer["cluster.wait_us_p50"] = percentile(agg.waits, 50)
		for _, k := range clusterKinds {
			if id := agg.ideal[k].PerOp(); id > 0 {
				t.layer["cluster.penalty."+k] = agg.shared[k].PerOp() / id
			}
		}
		return nil
	},
}
