package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory until the run ends. A
// span covers one call into a layer: its name, start, end, the span that
// caused it, and the run id shared by every span of one operation.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"` // 0 for a root span
	Run    int    `json:"run"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, run int) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Parent: parent, Run: run, Start: now, End: -1})
	return len(t.spans)
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// do runs fn inside a span and returns the span's duration. On a nil
// tracer (an untraced run) it just runs fn.
func (t *tracer) do(name string, parent, run int, fn func()) time.Duration {
	if t == nil {
		fn()
		return 0
	}
	id := t.begin(name, parent, run)
	fn()
	return t.end(id)
}

// layerTime is the time spent under one span name.
type layerTime struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes aggregates, per span name, the total duration and the self
// time: each span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerTime{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		self := dur - covered(s, children[s.ID])
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.Count++
		lt.TotalMs += float64(dur) / 1e6
		lt.SelfMs += float64(self) / 1e6
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		if k.End < 0 {
			continue
		}
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		if i == 0 || v.lo > curHi {
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	return total + curHi - curLo
}

// traceFile is what a traced run writes out.
type traceFile struct {
	Layers map[string]*layerTime `json:"layers"`
	Spans  []span                `json:"spans"`
}

func (t *tracer) export() traceFile {
	layers := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	return traceFile{Layers: layers, Spans: append([]span(nil), t.spans...)}
}

func (t *tracer) printSelf(w io.Writer) {
	layers := t.selfTimes()
	fmt.Fprintf(w, "%-36s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, name := range sortedKeys(layers) {
		lt := layers[name]
		fmt.Fprintf(w, "%-36s %8d %12.3f %12.3f\n", name, lt.Count, lt.TotalMs, lt.SelfMs)
	}
}
