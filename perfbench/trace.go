package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the public function it calls. Times are nanoseconds since
// the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a request's root span
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A disabled tracer records nothing,
// which is how the same replay runs untraced for trace.overhead.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (-1 when disabled).
func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, parent, req int, fn func()) {
	id := t.begin(name, parent, req)
	fn()
	t.end(id)
}

// selfTimes returns every span's self time: its duration minus the
// part of its interval that its children cover.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(spans, kids[i], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the child intervals, clipped
// to [lo, hi].
func covered(spans []span, kids []int, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64 = 0, -1, -1
	for _, v := range iv {
		if v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// spanStats summarizes the recorded spans by name.
type spanStats struct {
	count map[string]int
	self  map[string]int64 // summed self time, ns
	// coverage is the layer spans' summed self time over the summed
	// duration of the root spans: the share of request time the
	// layer spans attribute.
	coverage float64
}

func summarize(spans []span) spanStats {
	st := spanStats{count: map[string]int{}, self: map[string]int64{}}
	self := selfTimes(spans)
	var rootDur, layerSelf int64
	for i, s := range spans {
		st.count[s.Name]++
		st.self[s.Name] += self[i]
		if s.Parent < 0 {
			rootDur += s.End - s.Start
		} else {
			layerSelf += self[i]
		}
	}
	if rootDur > 0 {
		st.coverage = float64(layerSelf) / float64(rootDur)
	}
	return st
}

// meanSelf is the mean self time per span of a name, in the unit
// given as nanoseconds per unit (1e3 for µs, 1e6 for ms); 0 when no
// span of that name was recorded.
func (st spanStats) meanSelf(name string, unitNs float64) float64 {
	n := st.count[name]
	if n == 0 {
		return 0
	}
	return float64(st.self[name]) / float64(n) / unitNs
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
