package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// request share Req; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// spanRef is an open span; a nil tracer hands out zero refs and ignores
// them, so untraced runs pay one nil check per call site.
type spanRef struct {
	id, parent int64
	name, req  string
	start      time.Time
}

// tracer keeps every finished span in memory until the run writes them out.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name, req string, parent int64) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{id: t.next.Add(1), parent: parent, name: name, req: req, start: time.Now()}
}

func (t *tracer) end(s spanRef) {
	if t == nil {
		return
	}
	end := time.Now()
	t.add(span{ID: s.id, Parent: s.parent, Name: s.name, Req: s.req,
		Start: int64(s.start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// record adds a span whose bounds were measured elsewhere.
func (t *tracer) record(name, req string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	id := t.next.Add(1)
	t.add(span{ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return id
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// layerTime is one span name's durations and self times, in µs per call.
type layerTime struct {
	dur  []float64
	self []float64 // duration minus the part children cover
}

// selfTimes groups spans by name and computes each one's self time: its
// duration minus the union of its children's intervals inside it.
func (t *tracer) selfTimes() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.dur = append(lt.dur, float64(s.End-s.Start)/1e3)
		lt.self = append(lt.self, float64(s.End-s.Start-covered(s, children[s.ID]))/1e3)
	}
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}
