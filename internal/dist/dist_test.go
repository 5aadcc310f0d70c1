package dist_test

import (
	"context"
	"testing"
	"time"

	"mdq/internal/card"
	"mdq/internal/cost"
	"mdq/internal/cq"
	. "mdq/internal/dist"
	"mdq/internal/opt"
	"mdq/internal/schema"
	"mdq/internal/service"
	"mdq/internal/simweb"
)

// threeAtomTravelText keeps the travel-world differential fast while
// exercising chunked services, both join kinds and a cross-atom
// predicate.
const threeAtomTravelText = `
q(Conf, City, Hotel, HPrice, FPrice) :-
    flight('Milano', City, Start, End, StartTime, EndTime, FPrice),
    hotel(Hotel, City, 'luxury', Start, End, HPrice),
    conf('DB', Conf, Start, End, City),
    FPrice + HPrice < 2000 {0.01}.`

// world bundles a registry+schema constructor for the differential
// matrix.
type world struct {
	name string
	make func() (*service.Registry, *schema.Schema)
	text string
}

func zipfWorld() (*service.Registry, *schema.Schema) {
	w := simweb.NewZipfWorld(10, 200, 1.1)
	return w.Registry, w.Schema
}

func travelWorld() (*service.Registry, *schema.Schema) {
	w := simweb.NewTravelWorld(simweb.TravelOptions{})
	return w.Registry, w.Schema
}

func bioWorld() (*service.Registry, *schema.Schema) {
	w := simweb.NewBioWorld()
	sch, err := w.Registry.Schema()
	if err != nil {
		panic(err)
	}
	return w.Registry, sch
}

var worlds = []world{
	{name: "travel", make: travelWorld, text: threeAtomTravelText},
	{name: "bioinfo", make: bioWorld, text: simweb.BioExampleText},
	{name: "zipf", make: zipfWorld, text: simweb.ZipfExampleText},
}

// resolve parses and resolves text against a schema.
func resolve(t testing.TB, text string, sch *schema.Schema) *cq.Query {
	t.Helper()
	q, err := cq.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Resolve(sch); err != nil {
		t.Fatal(err)
	}
	return q
}

// localCluster builds a coordinator over n in-process workers, each
// with its own registry built by the same world constructor (the
// multi-process topology, minus the sockets) and a fresh plan cache.
func localCluster(t testing.TB, w world, n int) (*Coordinator, []*Worker) {
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
		workers = append(workers, wk)
		co.Workers = append(co.Workers, LocalTransport{Worker: wk})
	}
	return co, workers
}

// TestDistributedMatchesSequential: the acceptance differential — a
// LocalTransport cluster of two and three workers returns plans
// byte-identical (canonical signature, cost, feasibility) to the
// sequential in-process optimizer, on all three simweb worlds.
func TestDistributedMatchesSequential(t *testing.T) {
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			reg, sch := w.make()
			q := resolve(t, w.text, sch)
			seq := &opt.Optimizer{
				Metric:       cost.ExecTime{},
				Estimator:    card.Config{Mode: card.OneCall},
				K:            10,
				ChooseMethod: reg.MethodChooser(),
			}
			want, err := seq.Optimize(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{2, 3} {
				co, _ := localCluster(t, w, n)
				cq2 := resolve(t, w.text, mustSchema(t, co.Registry))
				got, err := co.Optimize(context.Background(), cq2)
				if err != nil {
					t.Fatalf("%d workers: %v", n, err)
				}
				if got.Cost != want.Cost || got.Feasible != want.Feasible {
					t.Fatalf("%d workers: cost %g/%v, sequential %g/%v",
						n, got.Cost, got.Feasible, want.Cost, want.Feasible)
				}
				if gs, ws := got.Best.Signature(), want.Best.Signature(); gs != ws {
					t.Fatalf("%d workers: plan %s, sequential %s", n, gs, ws)
				}
				if got.Stats.PermissibleAssignments != want.Stats.PermissibleAssignments ||
					got.Stats.CandidateAssignments != want.Stats.CandidateAssignments {
					t.Fatalf("%d workers: assignment counts %+v, sequential %+v", n, got.Stats, want.Stats)
				}
			}
		})
	}
}

func mustSchema(t testing.TB, reg *service.Registry) *schema.Schema {
	t.Helper()
	sch, err := reg.Schema()
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// TestDistributedMoreWorkersThanAssignments: shards beyond the
// assignment count come back empty (Found=false) and the merge still
// returns the sequential optimum.
func TestDistributedMoreWorkersThanAssignments(t *testing.T) {
	w := worlds[2] // zipf: two atoms, very few assignments
	reg, sch := w.make()
	q := resolve(t, w.text, sch)
	seq := &opt.Optimizer{Metric: cost.ExecTime{}, Estimator: card.Config{Mode: card.OneCall},
		K: 10, ChooseMethod: reg.MethodChooser()}
	want, err := seq.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	co, _ := localCluster(t, w, 6)
	got, err := co.Optimize(context.Background(), resolve(t, w.text, mustSchema(t, co.Registry)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Best.Signature() != want.Best.Signature() || got.Cost != want.Cost {
		t.Fatalf("6-worker merge (%g, %s), sequential (%g, %s)",
			got.Cost, got.Best.Signature(), want.Cost, want.Best.Signature())
	}
}

// TestDistributedTemplateServing: repeated template optimizations hit
// the workers' template caches — the second distributed call performs
// zero fresh searches across the cluster — and serve the same plan.
func TestDistributedTemplateServing(t *testing.T) {
	w := worlds[2]
	co, workers := localCluster(t, w, 2)
	q := resolve(t, w.text, mustSchema(t, co.Registry))

	r1, err := co.OptimizeTemplate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TemplateHit {
		t.Fatal("first distributed template call claimed a hit on cold caches")
	}
	searchesAfterFirst := clusterSearches(workers)
	if searchesAfterFirst == 0 {
		t.Fatal("cold call ran no searches")
	}
	r2, err := co.OptimizeTemplate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.TemplateHit {
		t.Fatal("second distributed template call missed the worker caches")
	}
	if got := clusterSearches(workers); got != searchesAfterFirst {
		t.Fatalf("second call ran %d fresh searches", got-searchesAfterFirst)
	}
	if r1.Best.Signature() != r2.Best.Signature() {
		t.Fatalf("template hit changed the plan: %s vs %s", r2.Best.Signature(), r1.Best.Signature())
	}

	// A worker without a plan cache (mdqworker -plancache 0) still
	// answers all three requests: a shard search, a template probe
	// that finds nothing, and a fragment execution.
	t.Run("uncached", func(t *testing.T) {
		wreg, _ := w.make()
		wk := NewWorker(wreg, nil)
		wk.Parallelism = 1
		tr := LocalTransport{Worker: wk}
		ctx := context.Background()
		req := SearchRequest{Query: q.String(), K: 10, ShardCount: 1}
		shard, err := tr.Search(ctx, req)
		if err != nil || !shard.Found || shard.Signature != r1.Best.Signature() {
			t.Fatalf("shard search: %+v, %v; want plan %s", shard, err, r1.Best.Signature())
		}
		req.Template = true
		probe, err := tr.Search(ctx, req)
		if err != nil || probe.Found {
			t.Fatalf("template probe: %+v, %v; want found:false", probe, err)
		}
		co.Workers = []Transport{tr}
		out, err := co.ExecutePlan(ctx, r1.Best)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Rows) == 0 || out.Stats.Calls["catalog"] == 0 {
			t.Fatalf("fragment execution returned %d rows and calls %v", len(out.Rows), out.Stats.Calls)
		}
	})
}

func clusterSearches(workers []*Worker) uint64 {
	var n uint64
	for _, wk := range workers {
		n += wk.Cache().Stats().Searches
	}
	return n
}

// TestWarmWorkersFromUnshardedCache: the primary warmup path — a
// coordinator's local (unsharded) template entries must be servable
// by sharded worker searches, i.e. template keys are shard-blind.
func TestWarmWorkersFromUnshardedCache(t *testing.T) {
	w := worlds[2]
	co, workers := localCluster(t, w, 2)
	q := resolve(t, w.text, mustSchema(t, co.Registry))

	// Populate a local, unsharded cache on the coordinator's side —
	// what a single-node mdqserve would have persisted.
	local := opt.NewPlanCache(16)
	seq := &opt.Optimizer{Metric: cost.ExecTime{}, Estimator: card.Config{Mode: card.OneCall},
		K: 10, ChooseMethod: co.Registry.MethodChooser(), Cache: local,
		CacheSalt: co.Registry.CacheSalt(), Epochs: co.Registry}
	if _, err := seq.OptimizeTemplate(q); err != nil {
		t.Fatal(err)
	}
	n, err := co.WarmWorkers(context.Background(), local.ExportTemplates())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("unsharded entries were not importable")
	}
	r, err := co.OptimizeTemplate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !r.TemplateHit {
		t.Fatal("sharded worker search did not serve the unsharded warm skeleton")
	}
	if got := clusterSearches(workers); got != 0 {
		t.Fatalf("warmed cluster ran %d searches, want 0", got)
	}
}

// TestConcurrentSearchesIsolated: two coordinators sharing one worker
// fleet run different queries concurrently; search IDs must keep
// their incumbent bounds apart (a shared ID would min-merge one
// query's bound into the other's search and corrupt its result).
func TestConcurrentSearchesIsolated(t *testing.T) {
	w := worlds[0] // travel: costs large enough that cross-talk would prune wrongly
	reg, sch := w.make()
	cheap := resolve(t, threeAtomTravelText, sch)
	costly := resolve(t, `
q(Conf, City, Hotel, HPrice) :-
    conf('DB', Conf, Start, End, City),
    hotel(Hotel, City, 'luxury', Start, End, HPrice).`, sch)
	seq := func(q *cq.Query) *opt.Result {
		o := &opt.Optimizer{Metric: cost.ExecTime{}, Estimator: card.Config{Mode: card.OneCall},
			K: 10, ChooseMethod: reg.MethodChooser()}
		res, err := o.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wantCheap, wantCostly := seq(cheap), seq(costly)

	co, _ := localCluster(t, w, 2)
	co.SyncInterval = time.Millisecond
	sch2 := mustSchema(t, co.Registry)
	co2 := &Coordinator{Registry: co.Registry, Workers: co.Workers,
		Metric: cost.ExecTime{}, Mode: card.OneCall, K: 10,
		SyncInterval: time.Millisecond}
	q1 := resolve(t, threeAtomTravelText, sch2)
	q2 := resolve(t, costly.String(), sch2)

	type out struct {
		res *opt.Result
		err error
	}
	ch1, ch2 := make(chan out, 1), make(chan out, 1)
	go func() { r, err := co.Optimize(context.Background(), q1); ch1 <- out{r, err} }()
	go func() { r, err := co2.Optimize(context.Background(), q2); ch2 <- out{r, err} }()
	o1, o2 := <-ch1, <-ch2
	if o1.err != nil || o2.err != nil {
		t.Fatalf("concurrent searches errored: %v / %v", o1.err, o2.err)
	}
	if o1.res.Cost != wantCheap.Cost || o1.res.Best.Signature() != wantCheap.Best.Signature() {
		t.Fatalf("concurrent cheap query (%g, %s), sequential (%g, %s)",
			o1.res.Cost, o1.res.Best.Signature(), wantCheap.Cost, wantCheap.Best.Signature())
	}
	if o2.res.Cost != wantCostly.Cost || o2.res.Best.Signature() != wantCostly.Best.Signature() {
		t.Fatalf("concurrent costly query (%g, %s), sequential (%g, %s)",
			o2.res.Cost, o2.res.Best.Signature(), wantCostly.Cost, wantCostly.Best.Signature())
	}
}

// TestWarmWorkers: template entries exported from one cache warm a
// whole cluster; matching statistics admit them fresh.
func TestWarmWorkers(t *testing.T) {
	w := worlds[2]
	co, workers := localCluster(t, w, 2)
	q := resolve(t, w.text, mustSchema(t, co.Registry))

	// Populate the cluster's caches once, then export a worker's
	// entries and warm a second, cold cluster with them.
	if _, err := co.OptimizeTemplate(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	entries := workers[0].ExportTemplates()
	if len(entries) == 0 {
		t.Fatal("populated worker exported no template entries")
	}

	co2, workers2 := localCluster(t, w, 2)
	n, err := co2.WarmWorkers(context.Background(), workers[0].Cache().ExportTemplates())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2*len(entries) {
		t.Fatalf("warmed %d entries across 2 workers, want %d", n, 2*len(entries))
	}
	// The warm cluster serves without a single fresh search: the
	// imported skeleton's fingerprints match the workers' local
	// statistics (identical world constructors), so entries are
	// fresh.
	r, err := co2.OptimizeTemplate(context.Background(), resolve(t, w.text, mustSchema(t, co2.Registry)))
	if err != nil {
		t.Fatal(err)
	}
	if !r.TemplateHit {
		t.Fatal("warmed cluster did not serve from imported skeletons")
	}
	if got := clusterSearches(workers2); got != 0 {
		t.Fatalf("warmed cluster ran %d searches, want 0", got)
	}
}
