package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// spanRec is one recorded span: a call into a layer, made from the
// benchmark's own files. Spans of one request share Req; Parent is
// the span that caused this one.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: a request's root
	Req    int    `json:"req"`              // -1: outside any request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
	// N is a count taken at the same boundary (tuples through a
	// fragment stream, rows of a run); 0 when the span carries none.
	N int64 `json:"n,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing: the untraced replica passes one.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// openSpan is a span that has started. A nil openSpan ignores end and
// count.
type openSpan struct {
	rec *recorder
	idx int
}

type spanCtxKey struct{}

// spanRef is what a context carries: the enclosing span and request.
type spanRef struct{ id, req int }

// withRequest marks ctx as belonging to request req.
func withRequest(ctx context.Context, req int) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, spanRef{req: req})
}

// start opens a span under the span ctx carries and returns a context
// carrying the new one.
func (r *recorder) start(ctx context.Context, name string) (context.Context, *openSpan) {
	if r == nil {
		return ctx, nil
	}
	ref, ok := ctx.Value(spanCtxKey{}).(spanRef)
	if !ok {
		ref.req = -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, spanRec{ID: id, Parent: ref.id, Req: ref.req, Name: name, Start: now})
	r.mu.Unlock()
	return context.WithValue(ctx, spanCtxKey{}, spanRef{id: id, req: ref.req}), &openSpan{rec: r, idx: id - 1}
}

func (s *openSpan) end() {
	if s == nil {
		return
	}
	now := int64(time.Since(s.rec.t0))
	s.rec.mu.Lock()
	s.rec.spans[s.idx].End = now
	s.rec.mu.Unlock()
}

func (s *openSpan) count(n int64) {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	s.rec.spans[s.idx].N += n
	s.rec.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []spanRec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]spanRec(nil), r.spans...)
}

// writeSpans writes each replica pass's spans as JSON.
func writeSpans(path string, spans map[string][]spanRec) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// layerTimes are per-request means over a set of requests.
type layerTimes struct {
	requests int
	self     map[string]float64 // name → mean ns per request of span self time
	total    map[string]float64 // name → mean ns per request of span duration
	count    map[string]float64 // name → mean spans per request
	n        map[string]float64 // name → mean of the spans' N per request
}

// aggregate computes per-request means over the spans whose request
// keep accepts. A span's self time is its duration minus the part of
// that interval its child spans cover (children may overlap: fragment
// dispatches run concurrently).
func aggregate(spans []spanRec, keep func(req int) bool) layerTimes {
	children := map[int][]spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	lt := layerTimes{self: map[string]float64{}, total: map[string]float64{}, count: map[string]float64{}, n: map[string]float64{}}
	reqs := map[int]bool{}
	for _, s := range spans {
		if s.Req < 0 || !keep(s.Req) || s.End < s.Start {
			continue
		}
		reqs[s.Req] = true
		dur := s.End - s.Start
		lt.total[s.Name] += float64(dur)
		lt.self[s.Name] += float64(dur - covered(s, children[s.ID]))
		lt.count[s.Name]++
		lt.n[s.Name] += float64(s.N)
	}
	lt.requests = len(reqs)
	if lt.requests > 0 {
		for _, m := range []map[string]float64{lt.self, lt.total, lt.count, lt.n} {
			for k := range m {
				m[k] /= float64(lt.requests)
			}
		}
	}
	return lt
}

// covered returns how much of parent's interval its children cover.
func covered(parent spanRec, kids []spanRec) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curStart, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			total += curEnd - curStart
			curStart, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	return total + curEnd - curStart
}

// sibling records a second span beside a closed one — same parent,
// same start — lasting dur: an interval the layer measured itself
// (time to first row), or the same interval under a second name.
func (s *openSpan) sibling(name string, dur time.Duration) {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	src := s.rec.spans[s.idx]
	src.ID, src.Name, src.N = len(s.rec.spans)+1, name, 0
	src.End = src.Start + int64(dur)
	s.rec.spans = append(s.rec.spans, src)
}

// duration returns a closed span's length.
func (s *openSpan) duration() time.Duration {
	if s == nil {
		return 0
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	return time.Duration(s.rec.spans[s.idx].End - s.rec.spans[s.idx].Start)
}
