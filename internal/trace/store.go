package trace

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"time"

	"mdq/internal/bounded"
)

// TreeNode is one span rendered into nested tree form — the
// explain-style shape returned by POST /query with "trace": true and
// served by GET /trace/{id}.
type TreeNode struct {
	Span
	// Children are the span's child spans in start order.
	Children []*TreeNode `json:"children,omitempty"`
}

// Tree renders a flat span snapshot into its nested tree form.
// Spans whose parent is missing from the snapshot become roots;
// input order (start order) is preserved among siblings.
func Tree(spans []Span) []*TreeNode {
	nodes := make(map[uint64]*TreeNode, len(spans))
	ordered := make([]*TreeNode, 0, len(spans))
	for i := range spans {
		n := &TreeNode{Span: spans[i]}
		n.tr = nil // detach: tree nodes are plain data
		nodes[n.ID] = n
		ordered = append(ordered, n)
	}
	var roots []*TreeNode
	for _, n := range ordered {
		if p, ok := nodes[n.Parent]; ok && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// Walk visits every node of a span tree depth-first, parents before
// children.
func Walk(roots []*TreeNode, visit func(n *TreeNode)) {
	for _, n := range roots {
		visit(n)
		Walk(n.Children, visit)
	}
}

// Dump is one finished trace as stored and served: its ID plus the
// rendered span tree.
type Dump struct {
	// TraceID identifies the trace.
	TraceID string `json:"trace_id"`
	// Time is when the trace was stored.
	Time time.Time `json:"time"`
	// Spans is the rendered span tree.
	Spans []*TreeNode `json:"spans"`
}

// Summary is one trace's row in the GET /trace listing.
type Summary struct {
	// TraceID identifies the trace.
	TraceID string `json:"trace_id"`
	// Time is when the trace was stored.
	Time time.Time `json:"time"`
	// Name is the root span's name.
	Name string `json:"name,omitempty"`
	// DurNanos is the root span's duration.
	DurNanos int64 `json:"dur_ns,omitempty"`
	// Spans counts the spans in the trace.
	Spans int `json:"spans"`
}

// Store is a fixed-capacity ring buffer of the most recent finished
// traces, the backing of GET /trace (listing) and GET /trace/{id}
// (full tree). Like the slowlog it trades completeness for bounded
// memory: the newest Cap traces win, recording is O(1) under one
// short lock, and the serving path never blocks on it.
type Store struct {
	mu   sync.Mutex
	ring *bounded.Ring[Dump]
}

// NewStore builds a store keeping the last cap traces (cap ≤ 0 means
// 64).
func NewStore(cap int) *Store {
	if cap <= 0 {
		cap = 64
	}
	return &Store{ring: bounded.NewRing[Dump](cap)}
}

// Add records a finished trace, evicting the oldest past capacity.
// Nil-safe: a nil store drops the trace.
func (st *Store) Add(d Dump) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.ring.Push(d)
	st.mu.Unlock()
}

// Get returns the stored trace with the given ID.
func (st *Store) Get(id string) (Dump, bool) {
	if st == nil {
		return Dump{}, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, d := range st.ring.NewestFirst() {
		if d.TraceID == id {
			return d, true
		}
	}
	return Dump{}, false
}

// Snapshot lists the held traces newest-first.
func (st *Store) Snapshot() []Summary {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	dumps := st.ring.NewestFirst()
	out := make([]Summary, 0, len(dumps))
	for _, d := range dumps {
		s := Summary{TraceID: d.TraceID, Time: d.Time, Spans: countNodes(d.Spans)}
		if len(d.Spans) > 0 {
			s.Name = d.Spans[0].Name
			s.DurNanos = d.Spans[0].Dur
		}
		out = append(out, s)
	}
	return out
}

func countNodes(roots []*TreeNode) int {
	n := 0
	Walk(roots, func(*TreeNode) { n++ })
	return n
}

// Handler serves the store over HTTP: GET /trace lists summaries
// newest-first, GET /trace/{id} returns one full trace tree (404
// when evicted or unknown). Mount it at both "/trace" and "/trace/".
func (st *Store) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		id := strings.Trim(strings.TrimPrefix(r.URL.Path, "/trace"), "/")
		w.Header().Set("Content-Type", "application/json")
		if id == "" {
			json.NewEncoder(w).Encode(st.Snapshot())
			return
		}
		d, ok := st.Get(id)
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": "no such trace"})
			return
		}
		json.NewEncoder(w).Encode(d)
	})
}
