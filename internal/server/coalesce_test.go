package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mdq/internal/opt"
	"mdq/internal/schema"
	"mdq/internal/service"
	"mdq/internal/tabsvc"
)

// gatedTable wraps a tabsvc.Table so the test controls exactly when
// an invocation completes: every Invoke signals entered, then blocks
// until release closes (or the caller's context ends). That makes
// "two requests overlap in flight" deterministic instead of a sleep
// race.
type gatedTable struct {
	inner       *tabsvc.Table
	entered     chan struct{}
	release     chan struct{}
	invocations atomic.Int64
}

func newGatedTable(sig *schema.Signature, rows [][]schema.Value) *gatedTable {
	return &gatedTable{
		inner:   tabsvc.MustNew(sig, rows, tabsvc.Latency{}),
		entered: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
}

func (g *gatedTable) Signature() *schema.Signature { return g.inner.Signature() }

func (g *gatedTable) Invoke(ctx context.Context, pat int, req service.Request) (service.Response, error) {
	g.invocations.Add(1)
	select {
	case g.entered <- struct{}{}:
	default:
	}
	select {
	case <-g.release:
	case <-ctx.Done():
		return service.Response{}, ctx.Err()
	}
	return g.inner.Invoke(ctx, pat, req)
}

// newCoalesceFixture builds a single-service world behind a gate and
// a /query server with coalescing on.
func newCoalesceFixture(t *testing.T) (*gatedTable, *httptest.Server, *observability) {
	t.Helper()
	sig := &schema.Signature{
		Name: "score",
		Attrs: []schema.Attribute{
			{Name: "Player", Domain: schema.Domain{Name: "Player", Kind: schema.StringValue, DistinctValues: 4}},
			{Name: "Points", Domain: schema.Domain{Name: "Points", Kind: schema.NumberValue}},
		},
		Patterns: []schema.AccessPattern{schema.MustPattern("io")},
		Kind:     schema.Exact,
		Stats:    schema.Stats{ERSPI: 1, ResponseTime: time.Millisecond},
	}
	gate := newGatedTable(sig, [][]schema.Value{{schema.S("alice"), schema.N(7)}})
	reg := service.NewRegistry()
	reg.MustRegister(gate)

	srv := New(http.NewServeMux(), Config{
		Engine: &Engine{
			Registry:        reg,
			Cache:           opt.NewPlanCache(16),
			Parallelism:     1,
			RevalidateRatio: opt.DefaultRevalidateRatio,
		},
		Coalesce:    true,
		MaxInFlight: 64,
		QueueWait:   time.Second,
		SlowlogCap:  16,
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return gate, ts, srv.obs
}

type queryReply struct {
	status int
	header http.Header
	body   map[string]any
}

// postQuery fires one /query and sends the decoded reply on a channel.
func postQuery(t *testing.T, url string, req map[string]any) <-chan queryReply {
	t.Helper()
	out := make(chan queryReply, 1)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("POST /query: %v", err)
			out <- queryReply{}
			return
		}
		defer resp.Body.Close()
		var decoded map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
			t.Errorf("decoding /query response: %v", err)
		}
		out <- queryReply{status: resp.StatusCode, header: resp.Header, body: decoded}
	}()
	return out
}

const coalesceQuery = `ans(P) :- score($player, P).`

// coalesceReq builds the /query body both requests share; extra
// fields (deadline_ms, trace) merge in per caller.
func coalesceReq(extra map[string]any) map[string]any {
	req := map[string]any{
		"template": coalesceQuery,
		"bindings": map[string]any{"player": "alice"},
	}
	for k, v := range extra {
		req[k] = v
	}
	return req
}

// findSpan walks a decoded trace tree for a span by name.
func findSpan(nodes []any, name string) map[string]any {
	for _, raw := range nodes {
		n, ok := raw.(map[string]any)
		if !ok {
			continue
		}
		if n["name"] == name {
			return n
		}
		if kids, ok := n["children"].([]any); ok {
			if found := findSpan(kids, name); found != nil {
				return found
			}
		}
	}
	return nil
}

func spanAttr(span map[string]any, key string) string {
	if span == nil {
		return ""
	}
	attrs, _ := span["attrs"].(map[string]any)
	v, _ := attrs[key].(string)
	return v
}

// TestQueryCoalescingSharesExecution: two identical concurrent /query
// requests run one optimize+execute; both answer the same rows, each
// under its own trace id, and the waiter's trace marks the coalesce.
func TestQueryCoalescingSharesExecution(t *testing.T) {
	gate, ts, obs := newCoalesceFixture(t)
	req := coalesceReq(map[string]any{"trace": true})

	a := postQuery(t, ts.URL, req)
	<-gate.entered // the leader's execution is in flight
	b := postQuery(t, ts.URL, req)
	time.Sleep(50 * time.Millisecond) // let b attach to the flight
	close(gate.release)

	ra, rb := <-a, <-b
	for name, r := range map[string]queryReply{"leader": ra, "waiter": rb} {
		if r.status != http.StatusOK {
			t.Fatalf("%s status %d: %v", name, r.status, r.body["error"])
		}
		rows, _ := r.body["rows"].([]any)
		if len(rows) != 1 {
			t.Fatalf("%s rows = %v", name, r.body["rows"])
		}
	}
	if n := gate.invocations.Load(); n != 1 {
		t.Fatalf("service invoked %d times for 2 coalesced requests, want 1", n)
	}

	// Per-request trace attribution: distinct ids, both returned in the
	// X-Mdq-Trace-Id header, and exactly one request marked coalesced.
	ida, idb := ra.body["trace_id"], rb.body["trace_id"]
	if ida == "" || idb == "" || ida == idb {
		t.Fatalf("trace ids not per-request: leader %v, waiter %v", ida, idb)
	}
	for name, r := range map[string]queryReply{"leader": ra, "waiter": rb} {
		if got := r.header.Get("X-Mdq-Trace-Id"); got != r.body["trace_id"] {
			t.Fatalf("%s X-Mdq-Trace-Id = %q, trace_id %v", name, got, r.body["trace_id"])
		}
	}
	marks := 0
	for name, r := range map[string]queryReply{"leader": ra, "waiter": rb} {
		tree, _ := r.body["trace"].([]any)
		span := findSpan(tree, "coalesce")
		if span == nil {
			t.Fatalf("%s trace has no coalesce span", name)
		}
		if spanAttr(span, "coalesced") == "true" {
			marks++
		}
	}
	if marks != 1 {
		t.Fatalf("%d requests marked coalesced=true, want exactly the waiter", marks)
	}
	if !strings.Contains(obs.metrics.Render(), "mdq_query_coalesced_total 1") {
		t.Fatal("mdq_query_coalesced_total did not count the waiter")
	}
}

// TestQueryCoalescingLeaderBudgetTrip: a leader whose own deadline
// trips mid-execution answers 504 without poisoning the flight — the
// live waiter re-runs the work under its own (unlimited) budget and
// still gets the rows.
func TestQueryCoalescingLeaderBudgetTrip(t *testing.T) {
	gate, ts, _ := newCoalesceFixture(t)
	defer close(gate.release)

	a := postQuery(t, ts.URL, coalesceReq(map[string]any{"deadline_ms": 150}))
	<-gate.entered
	b := postQuery(t, ts.URL, coalesceReq(nil))
	time.Sleep(50 * time.Millisecond) // b attaches before a's deadline

	ra := <-a // the gate holds a past its deadline; its budget trips
	if ra.status != http.StatusGatewayTimeout {
		t.Fatalf("leader status %d (%v), want 504", ra.status, ra.body["error"])
	}
	if ra.body["budget_exceeded"] != true {
		t.Fatalf("leader error not marked budget_exceeded: %v", ra.body)
	}

	// The waiter re-elects itself leader and re-enters the service.
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never re-ran the query after the leader's budget trip")
	}
	gate.release <- struct{}{} // let the re-run through (select in Invoke)
	rb := <-b
	if rb.status != http.StatusOK {
		t.Fatalf("waiter status %d (%v), want 200 after re-election", rb.status, rb.body["error"])
	}
	if rows, _ := rb.body["rows"].([]any); len(rows) != 1 {
		t.Fatalf("waiter rows = %v", rb.body["rows"])
	}
	if n := gate.invocations.Load(); n != 2 {
		t.Fatalf("service invoked %d times, want 2 (tripped leader + re-elected waiter)", n)
	}
}

// TestQueryCoalescingWaiterDetaches: a waiter whose own deadline
// passes mid-flight answers 504 on its own, while the leader's
// execution continues untouched and completes.
func TestQueryCoalescingWaiterDetaches(t *testing.T) {
	gate, ts, _ := newCoalesceFixture(t)

	a := postQuery(t, ts.URL, coalesceReq(nil))
	<-gate.entered
	b := postQuery(t, ts.URL, coalesceReq(map[string]any{"deadline_ms": 100}))

	rb := <-b // detaches at its deadline; the flight is still gated
	if rb.status != http.StatusGatewayTimeout {
		t.Fatalf("waiter status %d (%v), want 504", rb.status, rb.body["error"])
	}
	if rb.body["budget_exceeded"] != true {
		t.Fatalf("waiter error not marked budget_exceeded: %v", rb.body)
	}

	close(gate.release)
	ra := <-a
	if ra.status != http.StatusOK {
		t.Fatalf("leader status %d (%v), want 200 after waiter detached", ra.status, ra.body["error"])
	}
	if n := gate.invocations.Load(); n != 1 {
		t.Fatalf("service invoked %d times, want 1 — the detach must not re-run work", n)
	}
}
