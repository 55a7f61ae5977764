package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"` // since the tracer was created
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index of the enclosing span, -1 at the top
	Workload string `json:"workload"`
	Sample   int    `json:"sample"`
	// Self is the duration minus the time covered by child spans, filled
	// in when the trace is written.
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so traced and untraced samples run the same code. Solves of
// concurrent clients record through one tracer, hence the mutex.
type tracer struct {
	mu       sync.Mutex
	origin   time.Time
	workload string
	sample   int
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{origin: time.Now(), workload: workload}
}

// setSample labels the spans begun from now on.
func (t *tracer) setSample(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sample = n
	t.mu.Unlock()
}

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Workload: t.workload, Sample: t.sample})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// medianMS returns the median, over the samples that have a span named
// name, of that sample's summed span durations, in milliseconds; 0 when no
// span has the name.
func (t *tracer) medianMS(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	perSample := make(map[int]float64)
	for _, s := range t.spans {
		if s.Name == name {
			perSample[s.Sample] += float64(s.End-s.Start) / 1e6
		}
	}
	xs := make([]float64, 0, len(perSample))
	for _, v := range perSample {
		xs = append(xs, v)
	}
	return median(xs)
}

// write stores every span, with its self time, as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start - covered(children[i])
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// covered returns the length of the union of the spans' intervals:
// concurrent children (the solves of two clients) count once.
func covered(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, curStart, curEnd int64
	open := false
	for _, s := range spans {
		switch {
		case !open:
			curStart, curEnd, open = s.Start, s.End, true
		case s.Start <= curEnd:
			curEnd = max(curEnd, s.End)
		default:
			total += curEnd - curStart
			curStart, curEnd = s.Start, s.End
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}
