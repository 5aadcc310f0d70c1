package dist_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"mdq/internal/card"
	"mdq/internal/cost"
	. "mdq/internal/dist"
	"mdq/internal/opt"
	"mdq/internal/service"
)

// httpCluster runs n workers behind real HTTP servers (loopback) and
// returns a coordinator speaking HTTPTransport to them.
func httpCluster(t testing.TB, w world, n int) (*Coordinator, []*Worker) {
	t.Helper()
	reg, _ := w.make()
	co := &Coordinator{
		Registry: reg,
		Metric:   cost.ExecTime{},
		Mode:     card.OneCall,
		K:        10,
	}
	var workers []*Worker
	for i := 0; i < n; i++ {
		wreg, _ := w.make()
		wk := NewWorker(wreg, opt.NewPlanCache(16))
		wk.Parallelism = 1
		srv := httptest.NewServer(wk.Handler())
		t.Cleanup(srv.Close)
		workers = append(workers, wk)
		co.Workers = append(co.Workers, &HTTPTransport{Base: srv.URL})
	}
	return co, workers
}

// TestHTTPTransportDifferential: the full protocol over real HTTP —
// sharded search, skeleton wire format, bound sync — returns the
// sequential optimizer's plan.
func TestHTTPTransportDifferential(t *testing.T) {
	w := worlds[2] // zipf keeps the HTTP round-trips cheap
	reg, sch := w.make()
	q := resolve(t, w.text, sch)
	seq := &opt.Optimizer{Metric: cost.ExecTime{}, Estimator: card.Config{Mode: card.OneCall},
		K: 10, ChooseMethod: reg.MethodChooser()}
	want, err := seq.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}

	co, _ := httpCluster(t, w, 2)
	got, err := co.Optimize(context.Background(), resolve(t, w.text, mustSchema(t, co.Registry)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost || got.Best.Signature() != want.Best.Signature() {
		t.Fatalf("http cluster (%g, %s), sequential (%g, %s)",
			got.Cost, got.Best.Signature(), want.Cost, want.Best.Signature())
	}
}

// TestHTTPGossipAndWarmup: epoch bumps and template entries travel
// over the wire endpoints.
func TestHTTPGossipAndWarmup(t *testing.T) {
	w := worlds[2]
	co, workers := httpCluster(t, w, 2)
	q := resolve(t, w.text, mustSchema(t, co.Registry))
	ctx := context.Background()

	if _, err := co.OptimizeTemplate(ctx, q); err != nil {
		t.Fatal(err)
	}
	epoch := co.Registry.BumpEpoch("review")
	if err := co.Gossip(ctx, []service.EpochBump{{Service: "review", Epoch: epoch}}); err != nil {
		t.Fatal(err)
	}
	stale := 0
	for _, wk := range workers {
		for _, e := range wk.Cache().Entries() {
			if e.Stale {
				stale++
			}
		}
	}
	if stale == 0 {
		t.Fatal("HTTP gossip marked nothing stale")
	}

	// Warm a second HTTP cluster from the first worker's cache.
	co2, workers2 := httpCluster(t, w, 2)
	n, err := co2.WarmWorkers(ctx, workers[0].Cache().ExportTemplates())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("HTTP warmup imported nothing")
	}
	imported := 0
	for _, wk := range workers2 {
		imported += len(wk.Cache().Entries())
	}
	if imported == 0 {
		t.Fatal("warmed caches are empty")
	}

	// A malformed request gets the JSON error envelope, not a hang.
	tr := co.Workers[0]
	if _, err := tr.Search(ctx, SearchRequest{Query: "not a query", ShardCount: 2}); err == nil {
		t.Fatal("malformed query did not error over HTTP")
	}
}
