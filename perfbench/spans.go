package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval around a call into a layer. Host times are
// nanoseconds since the recorder started; Sim times are the backend clock
// of the world the call ran in (-1 where there is none). On the sim backend
// images interleave on one host thread, so per-image spans carry simulated
// time only and host time is attributed at world and cell level.
type span struct {
	ID        int32  `json:"id"`
	Parent    int32  `json:"parent"`
	Name      string `json:"name"`
	HostStart int64  `json:"host_start"`
	HostEnd   int64  `json:"host_end"`
	SimStart  int64  `json:"sim_start"`
	SimEnd    int64  `json:"sim_end"`
}

// maxSpans bounds the spans kept in memory; later spans are counted but
// dropped, so a long traced run cannot grow without limit.
const maxSpans = 1 << 20

// recorder keeps spans in memory while enabled; every method is a no-op
// returning 0 while disabled. Safe for concurrent use (native images).
type recorder struct {
	mu      sync.Mutex
	on      bool
	t0      time.Time
	spans   []span
	dropped int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) enable(on bool) {
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

func (r *recorder) hostNow() int64 { return int64(time.Since(r.t0)) }

// begin opens a host-timed span and returns its id (0 when disabled).
func (r *recorder) begin(name string, parent int32) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return 0
	}
	return r.push(span{Parent: parent, Name: name, HostStart: r.hostNow(), HostEnd: -1, SimStart: -1, SimEnd: -1})
}

// end closes span id.
func (r *recorder) end(id int32) {
	if id <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(id) <= len(r.spans) {
		r.spans[id-1].HostEnd = r.hostNow()
	}
}

// setSim attaches a backend-clock interval to span id.
func (r *recorder) setSim(id int32, start, end int64) {
	if id <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(id) <= len(r.spans) {
		r.spans[id-1].SimStart, r.spans[id-1].SimEnd = start, end
	}
}

// add records a finished span and returns its id (0 when disabled). Host
// times are nanoseconds since the recorder started, -1 for a sim-only
// per-image span.
func (r *recorder) add(name string, parent int32, hostStart, hostEnd int64, simStart, simEnd int64) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return 0
	}
	return r.push(span{Parent: parent, Name: name, HostStart: hostStart, HostEnd: hostEnd, SimStart: simStart, SimEnd: simEnd})
}

// since converts a host instant to the recorder's span time base.
func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.t0)) }

func (r *recorder) push(s span) int32 {
	if len(r.spans) >= maxSpans {
		r.dropped++
		return 0
	}
	s.ID = int32(len(r.spans) + 1)
	r.spans = append(r.spans, s)
	return s.ID
}

// count returns the number of spans recorded, kept or dropped.
func (r *recorder) count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(len(r.spans)) + r.dropped
}

// selfTimes returns, per span name, the total host time and host self time
// (duration minus the part of it its host-timed children cover; concurrent
// native children are merged, not summed) in seconds.
func (r *recorder) selfTimes() (names []string, total, self map[string]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	total, self = map[string]float64{}, map[string]float64{}
	kids := map[int32][][2]int64{}
	for _, s := range r.spans {
		if s.HostEnd >= s.HostStart && s.HostStart >= 0 && s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.HostStart, s.HostEnd})
		}
	}
	child := make([]int64, len(r.spans)+1)
	for id, iv := range kids {
		child[id] = covered(iv)
	}
	for _, s := range r.spans {
		if s.HostStart < 0 || s.HostEnd < s.HostStart {
			continue
		}
		d := s.HostEnd - s.HostStart
		if _, ok := total[s.Name]; !ok {
			names = append(names, s.Name)
		}
		total[s.Name] += float64(d) / 1e9
		self[s.Name] += float64(d-child[s.ID]) / 1e9
	}
	sort.Strings(names)
	return names, total, self
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var n, end int64 = 0, -1
	for _, x := range iv {
		if x[0] > end {
			n += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			n += x[1] - end
			end = x[1]
		}
	}
	return n
}

// printSelfTimes writes the per-span-name host time table.
func (r *recorder) printSelfTimes(out io.Writer) {
	names, total, self := r.selfTimes()
	fmt.Fprintf(out, "spans: %d recorded, %d dropped\n", r.count()-r.dropped, r.dropped)
	fmt.Fprintf(out, "%-22s %12s %12s\n", "span", "host_s", "self_s")
	for _, n := range names {
		fmt.Fprintf(out, "%-22s %12.4f %12.4f\n", n, total[n], self[n])
	}
}

// writeJSONLines writes every kept span, one JSON object per line.
func (r *recorder) writeJSONLines(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
