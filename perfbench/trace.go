package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Phases a span can belong to. Work spans make up a pass's measured wall
// time; check spans come from the correctness gate, which runs the same
// public functions after the timed work and is never part of wall_s.
const (
	phaseWork  = "work"
	phaseCheck = "check"
)

// benchLayer names the benchmark's own glue: pass, client and job spans.
// Its self time is the part of wall_s no measured layer accounts for.
const benchLayer = "bench"

// span is one timed call into a layer's public function.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a pass root
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Job    string `json:"job"` // instance or request id
	Phase  string `json:"phase"`
	Pass   int    `json:"pass"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	pass  int
	phase string
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now(), phase: phaseWork} }

// start opens a span and returns its id (-1 when tracing is off).
func (t *tracer) start(parent int, layer, name, job string) int {
	if !t.on {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Job: job,
		Phase: t.phase, Pass: t.pass, Start: now, End: now})
	return id
}

// end closes the span opened by start.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(parent int, layer, name, job string, f func()) {
	id := t.start(parent, layer, name, job)
	f()
	t.end(id)
}

// callMedian is the median duration of one call of the named function
// over every span of it the run recorded, work and check alike; 0 when the
// workload never calls it.
func (t *tracer) callMedian(name string) time.Duration {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, float64(s.dur()))
		}
	}
	return time.Duration(median(ds))
}

// selfTimes sums each layer's self time over the work spans of one pass: a
// span's duration minus the union of its children's intervals.
func (t *tracer) selfTimes(pass int) map[string]time.Duration {
	children := map[int][]span{}
	var work []span
	for _, s := range t.spans {
		if s.Pass == pass && s.Phase == phaseWork {
			work = append(work, s)
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], s)
			}
		}
	}
	self := map[string]time.Duration{}
	for _, s := range work {
		self[s.Layer] += s.dur() - covered(children[s.ID])
	}
	return self
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64
	start := int64(-1)
	for _, s := range spans {
		if start < 0 || s.Start > end {
			if start >= 0 {
				total += end - start
			}
			start, end = s.Start, s.End
		} else if s.End > end {
			end = s.End
		}
	}
	if start >= 0 {
		total += end - start
	}
	return time.Duration(total)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
