package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Spans of one request share Req; a request's
// root span has Parent 0.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Req    int       `json:"req"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	SelfNs int64     `json:"self_ns"`
}

// ms is the span's duration; a span an off tracer did not record is 0.
func (s *span) ms() float64 {
	if s == nil {
		return 0
	}
	return float64(s.End.Sub(s.Start)) / 1e6
}

// tracer keeps spans in memory; write dumps them when the run ends. An off
// tracer records nothing and hands out nil spans, so a replay through it
// runs the same layer calls without the tracing.
type tracer struct {
	off   bool
	mu    sync.Mutex
	spans []*span
	reqs  int
}

// root opens a new request's root span.
func (t *tracer) root(name string) *span { return t.open(nil, name) }

func (t *tracer) open(parent *span, name string) *span {
	if t.off {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{ID: len(t.spans) + 1, Name: name}
	if parent != nil {
		s.Parent, s.Req = parent.ID, parent.Req
	} else {
		t.reqs++
		s.Req = t.reqs
	}
	t.spans = append(t.spans, s)
	s.Start = time.Now()
	return s
}

func (t *tracer) close(s *span) {
	if s != nil {
		s.End = time.Now()
	}
}

// call records fn as a child span of parent and returns it.
func (t *tracer) call(parent *span, name string, fn func()) *span {
	s := t.open(parent, name)
	fn()
	t.close(s)
	return s
}

// computeSelf sets each span's self time: its duration minus the part of
// its interval that its children cover.
func (t *tracer) computeSelf() {
	kids := map[int][]*span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start.Before(ch[j].Start) })
		var covered time.Duration
		var cur time.Time
		for _, c := range ch {
			lo, hi := c.Start, c.End
			if lo.Before(cur) {
				lo = cur
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				cur = hi
			}
		}
		s.SelfNs = int64(s.End.Sub(s.Start) - covered)
	}
}

// selfByName sums self time per span name, in milliseconds.
func (t *tracer) selfByName() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += float64(s.SelfNs) / 1e6
	}
	return out
}

// write dumps the spans, the per-name self times and the run stamp.
func (t *tracer) write(path string, st stamp) error {
	t.computeSelf()
	b, err := json.MarshalIndent(struct {
		Stamp  stamp              `json:"stamp"`
		SelfMs map[string]float64 `json:"self_ms"`
		Spans  []*span            `json:"spans"`
	}{st, t.selfByName(), t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
