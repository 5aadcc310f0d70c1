package dist_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"mdq/internal/card"
	"mdq/internal/cost"
	. "mdq/internal/dist"
	"mdq/internal/opt"
	"mdq/internal/service"
	"mdq/internal/simweb"
)

// clusters are the two ways the template-plane tests reach their
// workers: in-process and over loopback HTTP.
var clusters = []struct {
	name string
	make func(testing.TB, world, int) (*Coordinator, []*Worker)
}{
	{"local", localCluster},
	{"http", httpCluster},
}

// fleetCalls sums one operation's calls over the whole fleet.
func fleetCalls(faults []*FaultTransport, op string) int {
	n := 0
	for _, f := range faults {
		n += f.Calls(op)
	}
	return n
}

// TestTemplateProbeProtocol pins the template plane's message counts
// and what it leaves in the worker caches, on every world over both
// transports: a miss is the probe, one shard search per worker and one
// ImportTemplates per worker, after which every worker holds the
// merged winner's skeleton (at the parent of this test worker 1 held
// its own shard's loser and re-priced it on every later request); a hit
// is exactly one Search, no Sync and no import. Miss and hit both
// return the sequential optimizer's plan.
func TestTemplateProbeProtocol(t *testing.T) {
	for _, cl := range clusters {
		for _, w := range worlds {
			t.Run(cl.name+"/"+w.name, func(t *testing.T) {
				const n = 2
				want := seqReference(t, w)
				co, workers := cl.make(t, w, n)
				faults := wrapFaults(co)
				q := resolve(t, w.text, mustSchema(t, co.Registry))
				ctx := context.Background()

				miss, err := co.OptimizeTemplate(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if miss.TemplateHit {
					t.Fatal("cold fleet claimed a template hit")
				}
				assertSameOptimize(t, want, miss)
				if got := fleetCalls(faults, OpSearch); got != 1+n {
					t.Fatalf("miss issued %d searches, want %d (probe + one per shard)", got, 1+n)
				}
				for i, f := range faults {
					if got := f.Calls(OpTemplates); got != 1 {
						t.Fatalf("miss shipped %d imports to worker %d, want 1", got, i)
					}
				}
				var winner []string
				for _, p := range miss.Best.Assignment {
					winner = append(winner, p.String())
				}
				for i, wk := range workers {
					entries := wk.ExportTemplates()
					if len(entries) != 1 {
						t.Fatalf("worker %d holds %d template entries after the miss, want 1", i, len(entries))
					}
					if !reflect.DeepEqual(entries[0].Assignment, winner) ||
						!reflect.DeepEqual(entries[0].Topology, miss.Best.Topology) {
						t.Fatalf("worker %d memoized %v / %v, merged winner is %v / %v",
							i, entries[0].Assignment, entries[0].Topology, winner, miss.Best.Topology)
					}
				}

				syncs := fleetCalls(faults, OpSync)
				for i := 0; i < n; i++ { // the probe rotates: every worker answers one
					hit, err := co.OptimizeTemplate(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					if !hit.TemplateHit || hit.Revalidated {
						t.Fatalf("warm fleet: hit=%v revalidated=%v, want a fresh hit", hit.TemplateHit, hit.Revalidated)
					}
					assertSameOptimize(t, want, hit)
				}
				if got := fleetCalls(faults, OpSearch); got != 1+n+n {
					t.Fatalf("%d hits issued %d searches, want %d (one probe each)", n, got-1-n, n)
				}
				for i, f := range faults {
					if f.Calls(OpSearch) < 2 {
						t.Fatalf("worker %d was never probed: the probe target does not rotate", i)
					}
				}
				if got := fleetCalls(faults, OpSync) - syncs; got != 0 {
					t.Fatalf("hits issued %d bound syncs, want 0", got)
				}
				if got := fleetCalls(faults, OpTemplates); got != n {
					t.Fatalf("hits shipped %d more imports, want 0", got-n)
				}
				if got := clusterSearches(workers); got > n {
					t.Fatalf("fleet ran %d branch-and-bound searches, want at most one per shard", got)
				}
			})
		}
	}
}

// TestTemplateProbeFailover: a probe whose target dies mid-probe fails
// over to the next live worker and still answers from its cache —
// every worker holds the shipped winner — and a fleet with every
// worker down fails the probe with the typed ErrNoLiveWorkers.
func TestTemplateProbeFailover(t *testing.T) {
	w := worlds[2]
	co, _ := localCluster(t, w, 2)
	faults := wrapFaults(co)
	q := resolve(t, w.text, mustSchema(t, co.Registry))
	ctx := context.Background()
	if _, err := co.OptimizeTemplate(ctx, q); err != nil {
		t.Fatal(err)
	}

	faults[0].Refuse(true)
	for i := 0; i < 2; i++ { // the rotation lands one of these on the dead worker
		res, err := co.OptimizeTemplate(ctx, q)
		if err != nil {
			t.Fatalf("probe %d with worker 0 dead: %v", i, err)
		}
		if !res.TemplateHit {
			t.Fatalf("probe %d with worker 0 dead fell through to a search", i)
		}
	}
	if faults[0].Injected() == 0 {
		t.Fatal("no probe ever reached the dead worker")
	}

	m := downMembership(co)
	m.ReportFailure(0, errors.New("probe: connection refused"))
	m.ReportFailure(1, errors.New("probe: connection refused"))
	if _, err := co.OptimizeTemplate(ctx, q); !errors.Is(err, ErrNoLiveWorkers) {
		t.Fatalf("template probe on a dead fleet: %v, want ErrNoLiveWorkers", err)
	}
}

// cachelessCost prices the world's query by a fresh search against
// reg's current statistics — what a served plan must cost once the
// statistics moved.
func cachelessCost(t *testing.T, w world, reg *service.Registry) float64 {
	t.Helper()
	ref := &opt.Optimizer{Metric: cost.ExecTime{}, Estimator: card.Config{Mode: card.OneCall},
		K: 10, ChooseMethod: reg.MethodChooser()}
	res, err := ref.Optimize(resolve(t, w.text, mustSchema(t, reg)))
	if err != nil {
		t.Fatal(err)
	}
	return res.Cost
}

// TestTemplateProbeNeverServesStale extends the staleness pins to the
// fleet's template plane, over both transports: once the statistics a
// skeleton was priced under have moved — by a worker-local refresh, by
// a coordinator-side bump gossiped through GossipLoop, or because an
// imported entry's distribution fingerprints disagree with the
// worker's — the next probe serves it revalidated (re-priced under the
// fresh statistics) or misses into a fresh search; it is never served
// as a fresh hit, and never at the old price.
func TestTemplateProbeNeverServesStale(t *testing.T) {
	w := worlds[2] // zipf: catalog → review
	ctx := context.Background()
	// drift moves review's statistics on every node without telling any
	// cache; the scenario's bump is what must make them notice.
	drift := func(t *testing.T, co *Coordinator, workers []*Worker) {
		driftReview(t, co.Registry, 1.5)
		for _, wk := range workers {
			driftReview(t, wk.Registry(), 1.5)
		}
	}
	scenarios := []struct {
		name string
		move func(t *testing.T, co *Coordinator, workers []*Worker)
	}{
		{"worker-local bump", func(t *testing.T, co *Coordinator, workers []*Worker) {
			drift(t, co, workers)
			for _, wk := range workers {
				wk.Registry().BumpEpoch("review") // what execution feedback does
			}
		}},
		{"gossiped bump", func(t *testing.T, co *Coordinator, workers []*Worker) {
			t.Cleanup(co.GossipLoop(nil))
			drift(t, co, workers)
			co.Registry.BumpEpoch("review")
			waitFor(t, 5*time.Second, func() bool {
				for _, wk := range workers {
					for _, e := range wk.Cache().Entries() {
						if !e.Stale {
							return false
						}
					}
				}
				return true
			})
		}},
		{"disagreeing fingerprints", func(t *testing.T, co *Coordinator, workers []*Worker) {
			other := simweb.NewZipfWorld(10, 200, 1.6)
			if other.Registry.DistFingerprint("catalog") == workers[0].Registry().DistFingerprint("catalog") {
				t.Fatal("the two zipf worlds share a distribution fingerprint")
			}
			foreign := opt.NewPlanCache(16)
			o := &opt.Optimizer{Metric: cost.ExecTime{}, Estimator: card.Config{Mode: card.OneCall},
				K: 10, ChooseMethod: other.Registry.MethodChooser(), Cache: foreign,
				CacheSalt: other.Registry.CacheSalt(), Epochs: other.Registry}
			if _, err := o.OptimizeTemplate(resolve(t, w.text, other.Schema)); err != nil {
				t.Fatal(err)
			}
			for _, wk := range workers {
				wk.Cache().Purge()
			}
			if n, err := co.WarmWorkers(ctx, foreign.ExportTemplates()); err != nil || n != len(workers) {
				t.Fatalf("shipping the foreign entry: %d imported, %v", n, err)
			}
		}},
	}
	for _, cl := range clusters {
		for _, sc := range scenarios {
			t.Run(cl.name+"/"+sc.name, func(t *testing.T) {
				co, workers := cl.make(t, w, 2)
				q := resolve(t, w.text, mustSchema(t, co.Registry))
				if _, err := co.OptimizeTemplate(ctx, q); err != nil {
					t.Fatal(err)
				}
				sc.move(t, co, workers)
				want := cachelessCost(t, w, co.Registry)
				reshipped := false       // a miss re-searches and ships every worker a fresh entry
				for i := range workers { // one probe per worker: each holds the entry
					res, err := co.OptimizeTemplate(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					if res.TemplateHit && !res.Revalidated && !reshipped {
						t.Fatalf("probe %d was served as a fresh hit", i)
					}
					reshipped = reshipped || !res.TemplateHit
					if res.Cost != want {
						t.Fatalf("probe %d served cost %g, the fresh statistics price %g", i, res.Cost, want)
					}
				}
			})
		}
	}
}

// BenchmarkFleetTemplateHit is the fleet's hot path from the
// coordinator's side: a warm OptimizeTemplate through two workers —
// one probe, the probed worker's re-cost, the coordinator's rebuild
// and signature cross-check — on the travel query fleet_hot sends.
func BenchmarkFleetTemplateHit(b *testing.B) {
	w := worlds[0]
	for _, cl := range clusters {
		b.Run(cl.name, func(b *testing.B) {
			co, _ := cl.make(b, w, 2)
			q := resolve(b, w.text, mustSchema(b, co.Registry))
			ctx := context.Background()
			if _, err := co.OptimizeTemplate(ctx, q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, err := co.OptimizeTemplate(ctx, q); err != nil || !res.TemplateHit {
					b.Fatalf("warm fleet: %v, %+v", err, res)
				}
			}
		})
	}
}
