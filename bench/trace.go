package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary the harness wires itself.
// Spans of one request share Req; Parent is the span that caused this one.
type span struct {
	Workload string `json:"workload"`
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent"`
	Req      uint64 `json:"req"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the workload ends. A nil *tracer is
// "tracing off": begin returns a handle whose end does nothing, so the
// untraced run takes the same code path minus the clock reads and appends.
type tracer struct {
	workload string
	epoch    time.Time
	nextID   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// open is a started span.
type open struct {
	t     *tracer
	id    uint64
	par   uint64
	req   uint64
	name  string
	start int64
}

func (t *tracer) begin(name string, parent, req uint64) open {
	if t == nil {
		return open{}
	}
	return open{t: t, id: t.nextID.Add(1), par: parent, req: req, name: name, start: int64(time.Since(t.epoch))}
}

func (o open) end() {
	if o.t == nil {
		return
	}
	s := span{Workload: o.t.workload, ID: o.id, Parent: o.par, Req: o.req, Name: o.name, Start: o.start, End: int64(time.Since(o.t.epoch))}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, s)
	o.t.mu.Unlock()
}

// count returns the number of recorded spans.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durationsUs returns, for every span whose name has the prefix, its
// duration in µs — or, with self set, its duration minus the time its child
// spans cover (children of one span never overlap here: each boundary the
// harness wraps is a synchronous call).
func (t *tracer) durationsUs(prefix string, self bool) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var children map[uint64]int64
	if self {
		children = make(map[uint64]int64)
		for _, s := range t.spans {
			if s.Parent != 0 {
				children[s.Parent] += s.End - s.Start
			}
		}
	}
	var out []float64
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, float64(s.End-s.Start-children[s.ID])/1e3)
		}
	}
	return out
}

func (t *tracer) medianUs(prefix string) float64     { return median(t.durationsUs(prefix, false)) }
func (t *tracer) medianSelfUs(prefix string) float64 { return median(t.durationsUs(prefix, true)) }

// writeTo appends the spans as JSON lines to path.
func (t *tracer) writeTo(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
