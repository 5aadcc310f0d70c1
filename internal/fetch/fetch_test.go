package fetch_test

import (
	"encoding/json"
	"testing"

	"mdq/internal/abind"
	"mdq/internal/card"
	"mdq/internal/cost"
	"mdq/internal/cq"
	. "mdq/internal/fetch"
	"mdq/internal/plan"
	"mdq/internal/schema"
	"mdq/internal/simweb"
)

func planO(t *testing.T) *plan.Plan {
	t.Helper()
	w := simweb.NewTravelWorld(simweb.TravelOptions{})
	q, err := simweb.RunningExampleQuery(w.Schema)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.BuildPlan(q, simweb.PlanOTopology(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPaperClosedForms reproduces §5.3.1's arithmetic: for the
// Figure 8 plan with k=10, the bulk erspi with the join selectivity
// folded in is 20·0.05·0.01, so K′ = ⌈10/(1·0.01·25·5)⌉ = 8, and the
// paper's ⌈√·⌉ rounding of Eq. 6 with weights τ gives F_flight=3,
// F_hotel=4 — exactly the factors printed on Figure 8.
func TestPaperClosedForms(t *testing.T) {
	if got := PairProduct(10, 20*0.05*0.01, 25, 5); got != 8 {
		t.Fatalf("K′ = %d, want 8", got)
	}
	f1, f2 := PairParallelPaper(8, 9.7, 4.9)
	if f1 != 3 || f2 != 4 {
		t.Errorf("paper rounding = (%d,%d), want (3,4)", f1, f2)
	}
	// The exact integer optimum is cheaper: (2,4) costs 2·9.7+4·4.9 =
	// 39.0 versus (3,4) = 48.7. PairParallel finds it.
	g1, g2 := PairParallel(8, 9.7, 4.9)
	if g1*g2 < 8 {
		t.Fatalf("PairParallel infeasible: (%d,%d)", g1, g2)
	}
	if c, paper := float64(g1)*9.7+float64(g2)*4.9, 3*9.7+4*4.9; c > paper {
		t.Errorf("PairParallel cost %g worse than paper rounding %g", c, paper)
	}
	// Sequential case (Eq. 7).
	if f1, f2 := PairSequential(8); f1 != 1 || f2 != 8 {
		t.Errorf("PairSequential = (%d,%d), want (1,8)", f1, f2)
	}
	// Single chunked service (Eq. 5).
	if got := SingleChunked(10, 1.0, 5); got != 2 {
		t.Errorf("SingleChunked = %d, want 2", got)
	}
	if got := SingleChunked(10, 0.01, 25); got != 40 {
		t.Errorf("SingleChunked = %d, want 40", got)
	}
}

// TestAssignPlanO: phase 3 on the Figure 8 plan must reach k=10
// feasibly, and under the execution-time metric must not cost more
// than the paper's (3,4) choice.
func TestAssignPlanO(t *testing.T) {
	p := planO(t)
	a := &Assigner{
		Estimator: card.Config{Mode: card.OneCall},
		Metric:    cost.ExecTime{},
		K:         10,
	}
	res := a.Assign(p)
	if !res.Feasible {
		t.Fatal("k=10 should be reachable")
	}
	if res.TOut < 10 {
		t.Errorf("t_out = %g < k", res.TOut)
	}
	prod := res.Vector[0] * res.Vector[1]
	if prod < 8 {
		t.Errorf("fetch product = %d, need ≥ 8", prod)
	}
	// Paper's choice costs ETM 40.9; ours must be ≤.
	paper := planO(t)
	paper.ServiceNode[simweb.AtomFlight].Fetches = 3
	paper.ServiceNode[simweb.AtomHotel].Fetches = 4
	card.Config{Mode: card.OneCall}.Annotate(paper)
	if paperCost := (cost.ExecTime{}).Cost(paper); res.Cost > paperCost+1e-9 {
		t.Errorf("assigner cost %g worse than paper vector %g", res.Cost, paperCost)
	}
}

// TestGreedyAndSquareAgreeOnFeasibility: both heuristics reach k
// when k is reachable, and the exhaustive exploration can only
// improve on them.
func TestGreedyAndSquareAgreeOnFeasibility(t *testing.T) {
	for _, h := range []Heuristic{Greedy, Square} {
		p := planO(t)
		a := &Assigner{
			Estimator: card.Config{Mode: card.OneCall},
			Metric:    cost.RequestResponse{},
			K:         25,
			Heuristic: h,
		}
		res := a.Assign(p)
		if !res.Feasible {
			t.Errorf("%v: k=25 should be reachable", h)
		}
		if res.TOut < 25 {
			t.Errorf("%v: t_out %g < 25", h, res.TOut)
		}
	}
}

// TestAllOnesOptimal: when F=(1,…,1) already yields k results it is
// returned immediately (§4.3.2).
func TestAllOnesOptimal(t *testing.T) {
	p := planO(t)
	a := &Assigner{Estimator: card.Config{Mode: card.OneCall}, K: 1}
	res := a.Assign(p)
	if !res.Feasible || res.Vector[0] != 1 || res.Vector[1] != 1 {
		t.Errorf("all-ones should satisfy k=1: %+v", res)
	}
	if res.Explored != 1 {
		t.Errorf("explored %d vectors, want 1", res.Explored)
	}
}

// TestDecayCapsFeasibility: a decay small enough makes k unreachable
// (§4.3.2) and the assigner reports it.
func TestDecayCapsFeasibility(t *testing.T) {
	w := simweb.NewTravelWorld(simweb.TravelOptions{})
	q, err := simweb.RunningExampleQuery(w.Schema)
	if err != nil {
		t.Fatal(err)
	}
	// Cripple both search services: only the first chunk is relevant.
	w.Flight.Signature().Stats.Decay = 25
	w.Hotel.Signature().Stats.Decay = 5
	defer func() {
		w.Flight.Signature().Stats.Decay = 0
		w.Hotel.Signature().Stats.Decay = 0
	}()
	p, err := w.BuildPlan(q, simweb.PlanOTopology(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := &Assigner{Estimator: card.Config{Mode: card.OneCall}, K: 10}
	res := a.Assign(p)
	// With F capped at (1,1): t_out = 1.25 < 10.
	if res.Feasible {
		t.Errorf("k=10 should be unreachable under decay caps, got %+v", res)
	}
}

// TestExhaustiveMatchesBruteForce: the pruned exploration finds the
// same optimum as a plain scan of the feasible grid.
func TestExhaustiveMatchesBruteForce(t *testing.T) {
	for _, k := range []int{5, 10, 40, 100} {
		p := planO(t)
		est := card.Config{Mode: card.OneCall}
		metric := cost.RequestResponse{}
		a := &Assigner{Estimator: est, Metric: metric, K: k}
		res := a.Assign(p)
		if !res.Feasible {
			t.Fatalf("k=%d should be feasible", k)
		}

		// Brute force over a generous grid.
		nodes := p.ChunkedNodes()
		best := -1.0
		for f1 := 1; f1 <= 120; f1++ {
			for f2 := 1; f2 <= 120; f2++ {
				nodes[0].Fetches, nodes[1].Fetches = f1, f2
				if est.Annotate(p) < float64(k) {
					continue
				}
				if c := metric.Cost(p); best < 0 || c < best {
					best = c
				}
			}
		}
		if best < 0 {
			t.Fatalf("brute force found nothing for k=%d", k)
		}
		if res.Cost != best {
			t.Errorf("k=%d: assigner cost %g, brute force %g", k, res.Cost, best)
		}
	}
}

// loserTemplate is bench/workload's TravelTemplate bound to 'luxury':
// the fleet_hot and hot_single query.
const loserTemplate = `
q(Conf, City, Hotel, HPrice, FPrice) :-
    flight('Milano', City, Start, End, StartTime, EndTime, FPrice),
    hotel(Hotel, City, 'luxury', Start, End, HPrice),
    conf('DB', Conf, Start, End, City),
    FPrice + HPrice < 2000 {0.01}.`

// BenchmarkAssignLoserSkeleton prices the skeleton shard 1 of 2 finds
// for that query at k=5: hotel unbound (oooooo) beside flight, conf
// last, cost 1891 against the winner's 195. Phase 3 takes ≈ 41 ms on it
// where the winner takes ≈ 50 µs — until the fleet stopped memoizing
// shard-local skeletons, every fleet template hit paid this. It stays
// what a search pays on each such leaf: the concrete target for
// phase-3 work.
func BenchmarkAssignLoserSkeleton(b *testing.B) {
	w := simweb.NewTravelWorld(simweb.TravelOptions{})
	q, err := cq.Parse(loserTemplate)
	if err != nil {
		b.Fatal(err)
	}
	if err := q.Resolve(w.Schema); err != nil {
		b.Fatal(err)
	}
	var asn abind.Assignment
	for _, s := range []string{"iiiiooo", "oooooo", "ioooo"} {
		pat, err := schema.ParsePattern(s)
		if err != nil {
			b.Fatal(err)
		}
		asn = append(asn, pat)
	}
	var topo plan.Topology
	if err := json.Unmarshal([]byte(`{"n":3,"bits":"000100100"}`), &topo); err != nil {
		b.Fatal(err)
	}
	skeleton, err := plan.Build(q, asn, &topo, plan.Options{ChooseMethod: w.Registry.MethodChooser()})
	if err != nil {
		b.Fatal(err)
	}
	fa := &Assigner{Estimator: card.Config{Mode: card.OneCall}, Metric: cost.ExecTime{}, K: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fr := fa.Assign(skeleton.Clone()); !fr.Feasible || fr.Cost < 1891 || fr.Cost > 1892 {
			b.Fatalf("loser skeleton priced %g feasible=%v, want ≈ 1891.3", fr.Cost, fr.Feasible)
		}
	}
}
