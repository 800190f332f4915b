package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one query or
// request share a Trace id; Parent is the id of the enclosing span (0 at
// the root). Start and End are offsets from the tracer's origin. Attrs
// carry the counters and Stats durations the program reported for the
// call the span encloses.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent"`
	Trace  int64              `json:"trace"`
	Name   string             `json:"name"`
	Start  time.Duration      `json:"start_ns"`
	End    time.Duration      `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id returns a fresh id, for a trace or for a span whose children are
// recorded before it.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a span over [start, end] under the given id.
func (t *tracer) record(id, trace, parent int64, name string, start, end time.Time, attrs map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0), Attrs: attrs})
}

// add records a span over [start, end] under a fresh id and returns it.
func (t *tracer) add(trace, parent int64, name string, start, end time.Time, attrs map[string]float64) int64 {
	id := t.id()
	t.record(id, trace, parent, name, start, end, attrs)
	return id
}

// named returns the spans with the given name.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, for every span with the given name, its self time:
// its duration minus the part of its interval that its children cover.
func (t *tracer) selfTimes(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, selfTime(s, kids[s.ID]))
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is s's duration minus the union of its children's intervals
// clipped to s, so overlapping children (parallel work) are not counted
// twice and a child that overhangs its parent is not counted outside it.
func selfTime(s span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			covered += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b - cur.a
	}
	return s.dur() - covered
}
