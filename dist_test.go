package mdq_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"mdq"
)

// attachWorkers routes s through a fleet of two in-process workers
// and returns them.
func attachWorkers(s *mdq.System) []*mdq.DistWorker {
	var ws []*mdq.DistWorker
	for i := 0; i < 2; i++ {
		w := s.NewDistWorker(16)
		w.Parallelism = 1
		ws = append(ws, w)
		s.Workers = append(s.Workers, mdq.DistLocalTransport{Worker: w})
	}
	return ws
}

// TestDistributedOptimizeFacade: the public distributed surface —
// attach two in-process workers and the same Optimize shards the
// search across them and returns the sequential optimizer's plan;
// template bindings then serve from the workers' caches, and executing
// the merged plan answers the query.
func TestDistributedOptimizeFacade(t *testing.T) {
	s := demoSystem(t)
	s.K = 5

	q, err := s.Parse(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}

	attachWorkers(s)
	got, err := s.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost || got.Best.Signature() != want.Best.Signature() {
		t.Fatalf("distributed (%g, %s), sequential (%g, %s)",
			got.Cost, got.Best.Signature(), want.Cost, want.Best.Signature())
	}

	// The merged plan executes through the fleet too.
	res, err := s.Execute(context.Background(), got.Best)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("distributed plan produced no answers")
	}

	// Template bindings flow through the workers' template caches.
	tpl, err := mdq.ParseTemplate(adaptiveTemplate)
	if err != nil {
		t.Fatal(err)
	}
	_, r1, err := s.OptimizeBound(tpl, bindings("sushi"))
	if err != nil {
		t.Fatal(err)
	}
	if r1.TemplateHit {
		t.Fatal("cold distributed template call claimed a hit")
	}
	_, r2, err := s.OptimizeBound(tpl, bindings("tapas"))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.TemplateHit {
		t.Fatal("second distributed binding missed the worker template caches")
	}
}

// TestDistributedAnswerFacade: the end-to-end public pipeline —
// Answer on a system with workers (distributed optimization plus
// fragment execution) returns the exact rows a local Answer produces.
func TestDistributedAnswerFacade(t *testing.T) {
	s := demoSystem(t)
	s.K = 5
	_, wantOpt, err := s.Answer(context.Background(), demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	// Re-execute locally on a fresh system so observed state matches.
	s2 := demoSystem(t)
	s2.K = 5
	want, _, err := s2.Answer(context.Background(), demoQuery)
	if err != nil {
		t.Fatal(err)
	}

	fleet := demoSystem(t)
	fleet.K = 5
	attachWorkers(fleet)
	res, ores, err := fleet.Answer(context.Background(), demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	if ores.Cost != wantOpt.Cost {
		t.Fatalf("distributed answer optimized at %g, local at %g", ores.Cost, wantOpt.Cost)
	}
	if len(res.Rows) != len(want.Rows) {
		t.Fatalf("distributed answer has %d rows, local %d", len(res.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if !res.Rows[i][j].Equal(want.Rows[i][j]) {
				t.Fatalf("row %d col %d: distributed %s, local %s", i, j, res.Rows[i][j], want.Rows[i][j])
			}
		}
	}
}

// TestBudgetHonouredLocalAndFleet: System.Budget bounds a query end
// to end whichever way it runs — a one-call cap trips Answer on a
// plain system and on a system whose workers did the search.
func TestBudgetHonouredLocalAndFleet(t *testing.T) {
	for _, fleet := range []bool{false, true} {
		s := demoSystem(t)
		s.K = 5
		var workers []*mdq.DistWorker
		if fleet {
			workers = attachWorkers(s)
		}
		s.Budget = mdq.NewBudget(time.Minute, 1)
		_, _, err := s.Answer(context.Background(), demoQuery)
		if !errors.Is(err, mdq.ErrBudgetExceeded) {
			t.Fatalf("fleet=%v: Answer under a 1-call budget returned %v after %d calls, want ErrBudgetExceeded",
				fleet, err, s.Budget.Calls())
		}
		var searches uint64
		for _, w := range workers {
			searches += w.Cache().Stats().Searches
		}
		if fleet && searches == 0 {
			t.Fatal("Answer with System.Workers set never reached a worker")
		}
	}
}
