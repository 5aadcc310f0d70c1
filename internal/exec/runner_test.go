package exec_test

import (
	"context"
	"reflect"
	"testing"

	"mdq/internal/card"
	"mdq/internal/cq"
	. "mdq/internal/exec"
	"mdq/internal/plan"
	"mdq/internal/simweb"
)

func travelPlan(t *testing.T, topo *plan.Topology) (*simweb.TravelWorld, *plan.Plan) {
	t.Helper()
	w := simweb.NewTravelWorld(simweb.TravelOptions{})
	q, err := simweb.RunningExampleQuery(w.Schema)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.BuildPlan(q, topo, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	return w, p
}

func runPlan(t *testing.T, topo *plan.Topology, mode card.CacheMode) (*Result, *simweb.TravelWorld) {
	t.Helper()
	w, p := travelPlan(t, topo)
	r := &Runner{Registry: w.Registry, Cache: mode}
	res, err := r.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return res, w
}

// TestFigure11CallCounts reproduces the call-count panel of Figure
// 11 exactly: the number of service invocations per plan (S, P, O)
// and per caching setting. conf is always called once and returns 71
// tuples over 54 cities; the remaining counts are the paper's.
func TestFigure11CallCounts(t *testing.T) {
	cases := []struct {
		name                   string
		topo                   *plan.Topology
		mode                   card.CacheMode
		weather, flight, hotel int64
	}{
		{"S/no-cache", simweb.PlanSTopology(), card.NoCache, 71, 16, 284},
		{"P/no-cache", simweb.PlanPTopology(), card.NoCache, 71, 71, 71},
		{"O/no-cache", simweb.PlanOTopology(), card.NoCache, 71, 16, 16},
		{"S/one-call", simweb.PlanSTopology(), card.OneCall, 71, 16, 15},
		{"P/one-call", simweb.PlanPTopology(), card.OneCall, 71, 71, 71},
		{"O/one-call", simweb.PlanOTopology(), card.OneCall, 71, 16, 16},
		{"S/optimal", simweb.PlanSTopology(), card.Optimal, 54, 11, 10},
		{"P/optimal", simweb.PlanPTopology(), card.Optimal, 54, 54, 54},
		{"O/optimal", simweb.PlanOTopology(), card.Optimal, 54, 11, 11},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, _ := runPlan(t, tc.topo, tc.mode)
			if got := res.Stats.Calls["conf"]; got != 1 {
				t.Errorf("conf calls = %d, want 1", got)
			}
			if got := res.Stats.Calls["weather"]; got != tc.weather {
				t.Errorf("weather calls = %d, want %d", got, tc.weather)
			}
			if got := res.Stats.Calls["flight"]; got != tc.flight {
				t.Errorf("flight calls = %d, want %d", got, tc.flight)
			}
			if got := res.Stats.Calls["hotel"]; got != tc.hotel {
				t.Errorf("hotel calls = %d, want %d", got, tc.hotel)
			}
		})
	}
}

// TestParallelCallsDeterministic: multithreaded dispatch (§6) is a
// function of plan and input, not of goroutine scheduling — repeated
// runs make the same calls and return the same rows in the same
// order. The cache levels whose hits do not depend on order (no
// cache, optimal) make exactly the sequential calls; the one-call
// cache degrades, as the paper observed, by the same amount every run.
func TestParallelCallsDeterministic(t *testing.T) {
	for _, mode := range []card.CacheMode{card.NoCache, card.OneCall, card.Optimal} {
		t.Run(mode.String(), func(t *testing.T) {
			seq, _ := runPlan(t, simweb.PlanSTopology(), mode)
			var first *Result
			for i := 0; i < 3; i++ {
				w, p := travelPlan(t, simweb.PlanSTopology())
				r := &Runner{Registry: w.Registry, Cache: mode, ParallelCalls: true}
				res, err := r.Run(context.Background(), p)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = res
					continue
				}
				if !reflect.DeepEqual(res.Stats.Calls, first.Stats.Calls) {
					t.Fatalf("run %d calls %v, first run %v", i, res.Stats.Calls, first.Stats.Calls)
				}
				if !reflect.DeepEqual(res.Rows, first.Rows) {
					t.Fatalf("run %d rows differ from the first run's", i)
				}
			}
			if len(first.Rows) != len(seq.Rows) {
				t.Fatalf("parallel rows = %d, sequential %d", len(first.Rows), len(seq.Rows))
			}
			if mode == card.OneCall {
				if got, s := first.Stats.Calls["hotel"], seq.Stats.Calls["hotel"]; got <= s {
					t.Fatalf("one-call hotel calls = %d, sequential %d: no degradation", got, s)
				}
				return
			}
			if !reflect.DeepEqual(first.Stats.Calls, seq.Stats.Calls) {
				t.Fatalf("parallel calls %v, sequential %v", first.Stats.Calls, seq.Stats.Calls)
			}
		})
	}
}

// TestConfReturns71Tuples: the §6 ground truth — one call to conf
// with topic DB yields 71 tuples over 54 distinct cities, 16 of
// which (11 distinct) survive the 28 °C filter.
func TestConfReturns71Tuples(t *testing.T) {
	res, _ := runPlan(t, simweb.PlanOTopology(), card.NoCache)
	if got := res.Stats.Fetches["conf"]; got != 1 {
		t.Errorf("conf fetches = %d, want 1 (bulk)", got)
	}
	// weather was called once per conf tuple: 71.
	if got := res.Stats.Calls["weather"]; got != 71 {
		t.Errorf("weather calls = %d — conf must emit 71 tuples", got)
	}
	// flight was called once per hot tuple: 16.
	if got := res.Stats.Calls["flight"]; got != 16 {
		t.Errorf("flight calls = %d — 16 hot tuples expected", got)
	}
}

// TestResultsIdenticalAcrossCacheModes: logical caching is
// transparent — the result set must be identical in all three
// settings (same rows, same order).
func TestResultsIdenticalAcrossCacheModes(t *testing.T) {
	base, _ := runPlan(t, simweb.PlanOTopology(), card.NoCache)
	if len(base.Rows) == 0 {
		t.Fatal("plan O produced no answers")
	}
	for _, mode := range []card.CacheMode{card.OneCall, card.Optimal} {
		res, _ := runPlan(t, simweb.PlanOTopology(), mode)
		if len(res.Rows) != len(base.Rows) {
			t.Fatalf("%v: %d rows, no-cache %d", mode, len(res.Rows), len(base.Rows))
		}
		for i := range res.Rows {
			for j := range res.Rows[i] {
				if !res.Rows[i][j].Equal(base.Rows[i][j]) {
					t.Fatalf("%v: row %d differs", mode, i)
				}
			}
		}
	}
}

// TestPlansProduceSameResultSet: S, P and O are plans for the same
// query — same answer multiset (order may differ).
func TestPlansProduceSameResultSet(t *testing.T) {
	collect := func(topo *plan.Topology) map[string]int {
		res, _ := runPlan(t, topo, card.NoCache)
		m := map[string]int{}
		for _, row := range res.Rows {
			k := ""
			for _, v := range row {
				k += v.Key() + "|"
			}
			m[k]++
		}
		return m
	}
	s := collect(simweb.PlanSTopology())
	p := collect(simweb.PlanPTopology())
	o := collect(simweb.PlanOTopology())
	if len(s) == 0 {
		t.Fatal("plan S produced nothing")
	}
	if !sameMultiset(s, o) {
		t.Error("plan S and plan O answer sets differ")
	}
	if !sameMultiset(p, o) {
		t.Error("plan P and plan O answer sets differ")
	}
}

func sameMultiset(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestKLimitStopsEarly: with k set, execution stops after k answers
// and issues no more calls than the full drain.
func TestKLimitStopsEarly(t *testing.T) {
	w, p := travelPlan(t, simweb.PlanOTopology())
	r := &Runner{Registry: w.Registry, Cache: card.NoCache, K: 5}
	res, err := r.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	full, _ := runPlan(t, simweb.PlanOTopology(), card.NoCache)
	if res.Stats.Calls["hotel"] > full.Stats.Calls["hotel"] {
		t.Error("k-limited run called hotel more often than a full drain")
	}
	// The first 5 rows agree with the full run (determinism + rank
	// order preservation).
	for i := 0; i < 5; i++ {
		for j := range res.Rows[i] {
			if !res.Rows[i][j].Equal(full.Rows[i][j]) {
				t.Fatalf("row %d differs between k-limited and full run", i)
			}
		}
	}
}

// TestMergeScanOrderConsistency: the MS join's output order must be
// consistent with both input rankings — for any two results from the
// same lineage group, if one uses an earlier flight AND an earlier
// hotel, it must appear first (Fig. 5 diagonal traversal).
func TestMergeScanOrderConsistency(t *testing.T) {
	res, _ := runPlan(t, simweb.PlanOTopology(), card.NoCache)
	ix := indexOf(res.Head)
	type pos struct{ fRank, hRank, out int }
	// Group by lineage: the conference name is unique per upstream
	// tuple, and the order guarantee of [4] holds within each
	// lineage group.
	groups := map[string][]pos{}
	for i, row := range res.Rows {
		lineage := row[ix["Conf"]].Key()
		fp := row[ix["FPrice"]].Num
		hp := row[ix["HPrice"]].Num
		// Prices ascend with rank in the fixture, so use them as rank
		// proxies.
		groups[lineage] = append(groups[lineage], pos{int(fp), int(hp), i})
	}
	for city, ps := range groups {
		for a := 0; a < len(ps); a++ {
			for b := 0; b < len(ps); b++ {
				if ps[a].fRank < ps[b].fRank && ps[a].hRank < ps[b].hRank && ps[a].out > ps[b].out {
					t.Fatalf("city %s: pair dominating in both ranks emitted later (out %d > %d)",
						city, ps[a].out, ps[b].out)
				}
			}
		}
	}
}

func indexOf(head []cq.Var) map[string]int {
	m := map[string]int{}
	for i, v := range head {
		m[string(v)] = i
	}
	return m
}
