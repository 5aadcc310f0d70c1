package dist_test

import (
	"context"
	"testing"
	"time"

	"mdq/internal/card"
	"mdq/internal/cost"
	"mdq/internal/opt"
	"mdq/internal/service"
)

// driftReview raises the review service's response time on a
// registry by a factor within the revalidation ratio, through the
// copy-on-write snapshot (no local epoch bump: the test simulates a
// worker whose local statistics were synced out-of-band, with the
// coordinator's epoch gossip as the only invalidation signal).
func driftReview(t *testing.T, reg *service.Registry, factor float64) {
	t.Helper()
	svc, ok := reg.Lookup("review")
	if !ok {
		t.Fatal("review not registered")
	}
	sig := svc.Signature()
	st := sig.Statistics()
	st.ResponseTime = time.Duration(float64(st.ResponseTime) * factor)
	sig.SetStats(st)
}

// TestEpochGossipInvalidation is the satellite acceptance test: a
// worker holding a cached template must never serve a plan priced
// against pre-bump statistics once the coordinator gossips the
// epoch. After a statistics change on every node and one gossiped
// (service, epoch) bump, the next distributed optimization
// revalidates the skeleton and prices it exactly like a cache-less
// search under the fresh statistics.
func TestEpochGossipInvalidation(t *testing.T) {
	w := worlds[2] // zipf
	co, workers := localCluster(t, w, 2)
	q := resolve(t, w.text, mustSchema(t, co.Registry))
	ctx := context.Background()

	// Populate the worker caches and capture the pre-drift cost.
	r1, err := co.OptimizeTemplate(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := co.OptimizeTemplate(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.TemplateHit || r2.Revalidated {
		t.Fatalf("warm call hit=%v revalidated=%v, want fresh hit", r2.TemplateHit, r2.Revalidated)
	}

	// The world drifts: every node's local statistics move (as a
	// worker-side profile sync would), modestly enough that the cached
	// skeleton stays within the revalidation ratio.
	driftReview(t, co.Registry, 2.5)
	for _, wk := range workers {
		driftReview(t, wk.Registry(), 2.5)
	}

	// The coordinator's registry notices (epoch bump) and gossips the
	// bump to every worker cache.
	epoch := co.Registry.BumpEpoch("review")
	if err := co.Gossip(ctx, []service.EpochBump{{Service: "review", Epoch: epoch}}); err != nil {
		t.Fatal(err)
	}
	stale := 0
	for _, wk := range workers {
		for _, e := range wk.Cache().Entries() {
			if e.Kind == "template" && e.Stale {
				stale++
			}
		}
	}
	if stale == 0 {
		t.Fatal("gossip marked no template entry stale")
	}

	// Next optimization: served by revalidation, priced with the
	// fresh statistics — byte-identical to a cache-less search.
	r3, err := co.OptimizeTemplate(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.TemplateHit || !r3.Revalidated {
		t.Fatalf("post-gossip call hit=%v revalidated=%v, want revalidated hit", r3.TemplateHit, r3.Revalidated)
	}
	ref := &opt.Optimizer{Metric: cost.ExecTime{}, Estimator: card.Config{Mode: card.OneCall},
		K: 10, ChooseMethod: co.Registry.MethodChooser()}
	want, err := ref.Optimize(resolve(t, w.text, mustSchema(t, co.Registry)))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cost != want.Cost {
		t.Fatalf("post-gossip cost %g, cache-less reference %g — stale pricing served", r3.Cost, want.Cost)
	}
	if r3.Cost == r1.Cost {
		t.Fatal("cost unchanged across the statistics drift — pre-bump pricing served")
	}
	if r3.Best.Signature() != want.Best.Signature() {
		t.Fatalf("post-gossip plan %s, reference %s", r3.Best.Signature(), want.Best.Signature())
	}
	reval := uint64(0)
	for _, wk := range workers {
		reval += wk.Cache().Stats().Revalidations
	}
	if reval == 0 {
		t.Fatal("no worker cache recorded a revalidation")
	}
}

// TestReverseEpochGossip is the worker-originated round trip: an
// executing worker's feedback refresh bumps its own epochs; the
// fragment result piggybacks the bumps to the coordinator, which
// re-bumps its registry (invalidating its local template cache) and —
// through the running gossip loop — fans the invalidation out to the
// sibling worker. Every template cache in the fleet converges.
func TestReverseEpochGossip(t *testing.T) {
	w := worlds[2] // zipf: catalog → review, one serial fragment on worker 0
	co, workers := localCluster(t, w, 2)
	q := resolve(t, w.text, mustSchema(t, co.Registry))
	ctx := context.Background()

	// Coordinator-side template cache, wired to its registry's epochs
	// like any mdqserve cache.
	pc := opt.NewPlanCache(16)
	co.Registry.SubscribeEpochs(pc, pc.InvalidateService)
	local := &opt.Optimizer{Metric: cost.ExecTime{}, Estimator: card.Config{Mode: card.OneCall},
		K: 10, ChooseMethod: co.Registry.MethodChooser(), Cache: pc,
		CacheSalt: co.Registry.CacheSalt(), Epochs: co.Registry}
	res, err := local.OptimizeTemplate(q)
	if err != nil {
		t.Fatal(err)
	}
	// Warm both workers so the sibling demonstrably holds an entry.
	if n, werr := co.WarmWorkers(ctx, pc.ExportTemplates()); werr != nil || n == 0 {
		t.Fatalf("warmup shipped %d entries (%v)", n, werr)
	}

	staleTemplates := func(c *opt.PlanCache) int {
		n := 0
		for _, e := range c.Entries() {
			if e.Kind == "template" && e.Stale {
				n++
			}
		}
		return n
	}
	if staleTemplates(pc) != 0 {
		t.Fatal("coordinator cache stale before any refresh")
	}

	stop := co.GossipLoop(nil)
	defer stop()

	// Worker 0 executes under a zero-threshold feedback policy; its
	// registered review profile is shifted first (no epoch bump, as a
	// worker-side out-of-band sync would), so the observed traffic
	// must contradict the profile and force a refresh.
	workers[0].Registry().ObserveAll()
	workers[0].Feedback = &service.FeedbackPolicy{}
	driftReview(t, workers[0].Registry(), 2.0)
	if _, err := co.ExecutePlan(ctx, res.Best); err != nil {
		t.Fatal(err)
	}

	// The executing worker refreshed locally…
	if len(workers[0].Registry().Epochs()) == 0 {
		t.Fatal("execution feedback produced no worker-local epoch bump")
	}
	// …the coordinator absorbed the piggybacked bumps into its own
	// epochs, invalidating its template cache…
	if len(co.Registry.Epochs()) == 0 {
		t.Fatal("coordinator absorbed no worker-originated bumps")
	}
	if staleTemplates(pc) == 0 {
		t.Fatal("worker-originated bump did not invalidate the coordinator's template cache")
	}
	// …and the gossip loop fans the invalidation out to the sibling.
	deadline := time.Now().Add(5 * time.Second)
	for staleTemplates(workers[1].Cache()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sibling worker's template cache did not converge within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGossipLoop: the pushed path — a statistics epoch bump on the
// coordinator's registry reaches worker caches asynchronously through
// the epoch feed, with no explicit Gossip call.
func TestGossipLoop(t *testing.T) {
	w := worlds[2]
	co, workers := localCluster(t, w, 2)
	q := resolve(t, w.text, mustSchema(t, co.Registry))
	ctx := context.Background()

	if _, err := co.OptimizeTemplate(ctx, q); err != nil {
		t.Fatal(err)
	}
	stop := co.GossipLoop(nil)
	defer stop()

	co.Registry.BumpEpoch("catalog")
	deadline := time.Now().Add(5 * time.Second)
	for {
		stale := 0
		for _, wk := range workers {
			for _, e := range wk.Cache().Entries() {
				if e.Stale {
					stale++
				}
			}
		}
		if stale > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("gossip loop delivered no invalidation within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
