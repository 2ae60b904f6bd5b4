package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation share Op; Parent is the index of the enclosing span (-1 for an
// operation's root).
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
}

// tracer keeps spans in memory while the benchmark runs and writes them out
// when it ends. It only ever runs on the benchmark's single client
// goroutine, so it needs no lock. A disabled tracer records nothing and
// costs one branch per call, so the same workload code serves traced and
// untraced operations.
type tracer struct {
	on    bool
	t0    time.Time
	op    int
	spans []span
	stack []int
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// startOp opens a new operation; spans begun until the next startOp share
// its id.
func (t *tracer) startOp() { t.op++ }

// begin opens a span named after the layer call it wraps and returns the
// handle end takes.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	runtime.ReadMemStats(&t.ms)
	t.spans = append(t.spans, span{
		Op: t.op, Name: name, Parent: parent,
		Start: time.Since(t.t0).Nanoseconds(), Alloc: t.ms.TotalAlloc,
	})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	s := &t.spans[i]
	s.End = time.Since(t.t0).Nanoseconds()
	runtime.ReadMemStats(&t.ms)
	s.Alloc = t.ms.TotalAlloc - s.Alloc
	t.stack = t.stack[:len(t.stack)-1]
}

// layerStat aggregates the spans of one name: how many, and their summed
// self time and self allocation (own interval minus what child spans
// cover).
type layerStat struct {
	calls int
	self  time.Duration
	alloc uint64
}

func (l layerStat) meanMs() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.self.Nanoseconds()) / 1e6 / float64(l.calls)
}

func (l layerStat) meanUs() float64 { return l.meanMs() * 1e3 }

func (l layerStat) meanAllocMB() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.alloc) / 1e6 / float64(l.calls)
}

// layers derives self time and allocation from the recorded spans, keyed
// by "<root>/<name>" (just the name for an operation's root span), so one
// layer's calls on different paths — an uncached build and a cached
// rebuild, say — stay apart.
func (t *tracer) layers() map[string]layerStat {
	childTime := make([]int64, len(t.spans))
	childAlloc := make([]uint64, len(t.spans))
	root := make([]int, len(t.spans))
	for i, s := range t.spans {
		root[i] = i
		if s.Parent >= 0 {
			root[i] = root[s.Parent]
			childTime[s.Parent] += s.End - s.Start
			childAlloc[s.Parent] += s.Alloc
		}
	}
	out := map[string]layerStat{}
	for i, s := range t.spans {
		key := s.Name
		if root[i] != i {
			key = t.spans[root[i]].Name + "/" + s.Name
		}
		l := out[key]
		l.calls++
		l.self += time.Duration(s.End - s.Start - childTime[i])
		if s.Alloc > childAlloc[i] {
			l.alloc += s.Alloc - childAlloc[i]
		}
		out[key] = l
	}
	return out
}

// write stores the spans as JSON lines under path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
