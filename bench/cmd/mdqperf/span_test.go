package main

import (
	"context"
	"testing"
)

func TestSelfTimeSubtractsOverlappingChildren(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Req: 0, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 0, Name: "kid", Start: 10, End: 40},
		{ID: 3, Parent: 1, Req: 0, Name: "kid", Start: 30, End: 60},  // overlaps the first
		{ID: 4, Parent: 1, Req: 0, Name: "kid", Start: 80, End: 120}, // outlives the parent
		{ID: 5, Parent: 2, Req: 0, Name: "grandkid", Start: 15, End: 20},
		{ID: 6, Req: 1, Name: "parent", Start: 200, End: 260},
		{ID: 7, Req: 9, Name: "parent", Start: 300, End: 1300}, // filtered out
	}
	lt := aggregate(spans, func(req int) bool { return req < 2 })
	if lt.requests != 2 {
		t.Fatalf("requests = %d, want 2", lt.requests)
	}
	// Request 0: 100 − (10..60 ∪ 80..100 = 70) = 30; request 1: 60.
	if got := lt.self["parent"]; got != 45 {
		t.Errorf("parent self = %v, want 45", got)
	}
	if got := lt.total["parent"]; got != 80 {
		t.Errorf("parent total = %v, want 80", got)
	}
	// kid self: (30−5) + 30 + 40 over 2 requests.
	if got := lt.self["kid"]; got != 47.5 {
		t.Errorf("kid self = %v, want 47.5", got)
	}
	if got := lt.count["kid"]; got != 1.5 {
		t.Errorf("kids per request = %v, want 1.5", got)
	}
}

func TestRecorderLinksSpansThroughContext(t *testing.T) {
	rec := newRecorder()
	ctx := withRequest(context.Background(), 7)
	ctx1, outer := rec.start(ctx, "outer")
	_, inner := rec.start(ctx1, "inner")
	inner.count(3)
	inner.end()
	outer.end()
	_, orphan := rec.start(context.Background(), "orphan")
	orphan.end()
	spans := rec.snapshot()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[1].Req != 7 || spans[1].N != 3 {
		t.Errorf("inner = %+v, want parent %d, req 7, n 3", spans[1], spans[0].ID)
	}
	if spans[2].Req != -1 || spans[2].Parent != 0 {
		t.Errorf("orphan = %+v, want req -1 and no parent", spans[2])
	}

	// A nil recorder is tracing off: nothing recorded, nothing panics.
	var off *recorder
	ctx2, sp := off.start(ctx, "x")
	sp.count(1)
	sp.end()
	if ctx2 != ctx || off.snapshot() != nil {
		t.Error("nil recorder changed the context or recorded a span")
	}
}
