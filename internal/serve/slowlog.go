package serve

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"mdq/internal/bounded"
)

// RequestRecord is one request's accounting entry: what ran, how long
// each phase took, what it cost in service calls, and how it ended.
// Records feed the slow-query log and are the unit the /metrics
// aggregates are derived from.
type RequestRecord struct {
	// Time is the request arrival time.
	Time time.Time `json:"time"`
	// Endpoint is the serving endpoint ("/query", "/optimize", …).
	Endpoint string `json:"endpoint"`
	// Query summarizes the request (template text or query text).
	Query string `json:"query,omitempty"`
	// Status is the HTTP status returned.
	Status int `json:"status"`
	// Elapsed is the total wall-clock duration in seconds.
	Elapsed float64 `json:"elapsed_seconds"`
	// OptimizeSeconds is the time spent in plan search/re-costing.
	OptimizeSeconds float64 `json:"optimize_seconds,omitempty"`
	// ExecuteSeconds is the time spent executing the plan.
	ExecuteSeconds float64 `json:"execute_seconds,omitempty"`
	// FirstRowMillis is the time from the start of plan execution to
	// its first result row, in milliseconds (absent when the
	// execution produced no rows) — the streaming runtime's
	// time-to-first-answer signal.
	FirstRowMillis float64 `json:"first_row_ms,omitempty"`
	// Calls is the total logical service calls the request issued.
	Calls int64 `json:"calls,omitempty"`
	// CacheClass classifies how the optimizer answered: "exact",
	// "template", "revalidated" or "miss".
	CacheClass string `json:"cache_class,omitempty"`
	// Rows is the number of result rows returned.
	Rows int `json:"rows,omitempty"`
	// Bytes is the response body size streamed to the client.
	Bytes int64 `json:"bytes,omitempty"`
	// Error carries the error message of a failed request.
	Error string `json:"error,omitempty"`
	// TraceID links the record to its stored span tree (GET
	// /trace/{id}) when the request was traced.
	TraceID string `json:"trace_id,omitempty"`
}

// SlowLog is a fixed-capacity ring buffer of the most recent request
// records at or above a latency threshold. It trades completeness for
// bounded memory: under heavy traffic the log always holds the latest
// Cap slow requests, and recording is O(1) with one short lock — an
// event-queue shape rather than a synchronous sink, so the serving
// path never blocks on observability.
type SlowLog struct {
	// Threshold is the minimum Elapsed for a record to enter the log;
	// 0 logs every request.
	Threshold time.Duration

	mu   sync.Mutex
	ring *bounded.Ring[RequestRecord]
}

// NewSlowLog builds a log keeping the last cap qualifying records
// (cap ≤ 0 means 128).
func NewSlowLog(cap int, threshold time.Duration) *SlowLog {
	if cap <= 0 {
		cap = 128
	}
	return &SlowLog{Threshold: threshold, ring: bounded.NewRing[RequestRecord](cap)}
}

// Record offers one request record to the log; records faster than
// the threshold are dropped.
func (l *SlowLog) Record(r RequestRecord) {
	if time.Duration(r.Elapsed*float64(time.Second)) < l.Threshold {
		return
	}
	l.mu.Lock()
	l.ring.Push(r)
	l.mu.Unlock()
}

// Len returns the number of records currently held.
func (l *SlowLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Len()
}

// Snapshot returns the held records newest-first.
func (l *SlowLog) Snapshot() []RequestRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.NewestFirst()
}

// Handler serves GET /slowlog as a JSON array, newest first.
func (l *SlowLog) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(l.Snapshot())
	})
}
