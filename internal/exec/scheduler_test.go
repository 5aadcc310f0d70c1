package exec_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"mdq/internal/abind"
	"mdq/internal/card"
	"mdq/internal/cq"
	. "mdq/internal/exec"
	"mdq/internal/plan"
	"mdq/internal/schema"
	"mdq/internal/service"
	"mdq/internal/simweb"
	"mdq/internal/tabsvc"
)

// singletonChains substitutes every service node on its own.
func singletonChains(p *plan.Plan) [][]int {
	chains := make([][]int, len(p.ServiceNode))
	for i := range chains {
		chains[i] = []int{i}
	}
	return chains
}

// maximalChains cuts the plan where distributed execution does: at
// joins and at nodes with several consumers.
func maximalChains(p *plan.Plan) [][]int {
	var chains [][]int
	taken := map[int]bool{}
	for _, n := range p.TopoNodes() {
		if n.Kind != plan.Service || taken[n.ID] {
			continue
		}
		chain := []int{n.Atom.Index}
		for tail := n; len(tail.Out) == 1 && tail.Out[0].Kind == plan.Service && len(tail.Out[0].In) == 1; {
			tail = tail.Out[0]
			taken[tail.ID] = true
			chain = append(chain, tail.Atom.Index)
		}
		chains = append(chains, chain)
	}
	return chains
}

// replayStage is a substituted stage that does what fragment dispatch
// does minus the transport: collect the chain's seeds, run the chain
// with RunFragment, emit its tuples. fold, when non-nil, receives each
// completed chain's accounting.
func replayStage(r *Runner, p *plan.Plan, chains [][]int, fold func(Stats)) func(context.Context, int, <-chan Tuple, func(Tuple) error) error {
	return func(ctx context.Context, i int, in <-chan Tuple, emit func(Tuple) error) error {
		var seeds []Tuple
		for t := range in {
			seeds = append(seeds, t)
		}
		if ctx.Err() != nil {
			return context.Canceled
		}
		res, err := r.RunFragment(ctx, p, chains[i], seeds, emit)
		if err != nil {
			return err
		}
		if fold != nil {
			fold(res.Stats)
		}
		return nil
	}
}

// settleGoroutines waits for the goroutine count to return to the
// baseline taken before the runs under test.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines did not settle to baseline %d\n%s", before, buf[:runtime.Stack(buf, true)])
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSchedulerStageErrorBeforeK: a stage that fails before K rows
// exist fails the run with its error, every stage goroutine exits, and
// every arc is closed — exactly once, since a second close would have
// panicked the test binary.
func TestSchedulerStageErrorBeforeK(t *testing.T) {
	w, p := travelPlan(t, simweb.PlanOTopology())
	chains := singletonChains(p)
	r := &Runner{Registry: w.Registry, Cache: card.OneCall, K: 3, BufferSize: 2}
	replay := replayStage(r, p, chains, nil)
	boom := errors.New("stage down")

	before := runtime.NumGoroutine()
	var mu sync.Mutex
	var arcs []<-chan Tuple
	res, err := r.RunChains(context.Background(), p, chains, func(ctx context.Context, i int, in <-chan Tuple, emit func(Tuple) error) error {
		mu.Lock()
		arcs = append(arcs, in)
		mu.Unlock()
		// Every answer needs a hotel, so failing here without emitting
		// guarantees K is never reached.
		if chains[i][0] == simweb.AtomHotel {
			return boom
		}
		return replay(ctx, i, in, emit)
	})
	if res != nil || !errors.Is(err, boom) {
		t.Fatalf("res = %v, err = %v; want the stage error and no result", res, err)
	}
	if len(arcs) != len(chains) {
		t.Fatalf("%d of %d substituted stages ran", len(arcs), len(chains))
	}
	for i, in := range arcs {
		drained := make(chan struct{})
		go func() {
			for range in {
			}
			close(drained)
		}()
		select {
		case <-drained:
		case <-time.After(5 * time.Second):
			t.Fatalf("arc %d was left open after the run returned", i)
		}
	}
	settleGoroutines(t, before)
}

// TestSchedulerStageErrorAfterKDropped: once the output has its K rows
// the answer is complete; a stage failing while it is torn down does
// not turn the run into an error.
func TestSchedulerStageErrorAfterKDropped(t *testing.T) {
	w, p := travelPlan(t, simweb.PlanSTopology())
	r := &Runner{Registry: w.Registry, Cache: card.OneCall}
	want, err := r.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	chains := [][]int{chainS}
	kr := &Runner{Registry: w.Registry, Cache: card.OneCall, K: 2, BufferSize: 2}
	replay := replayStage(r, p, chains, nil)
	got, err := kr.RunChains(context.Background(), p, chains, func(ctx context.Context, i int, in <-chan Tuple, emit func(Tuple) error) error {
		replay(ctx, i, in, emit)
		<-ctx.Done() // the chain yields more than K rows, so K always lands
		return errors.New("late failure")
	})
	if err != nil {
		t.Fatalf("run failed although K was reached: %v", err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows[:2]) {
		t.Fatalf("rows = %v, want the first two of %v", got.Rows, want.Rows)
	}
}

// TestSubstitutedChainsMatchRun is dist≡local at the scheduler level,
// no transport involved: substituting every service chain by a stage
// that replays the chain yields Run's result — head, rows, bindings,
// and on full drains the call accounting — on every world and K, for
// the finest partition and for the one distributed execution uses.
func TestSubstitutedChainsMatchRun(t *testing.T) {
	for _, w := range streamWorlds() {
		t.Run(w.name, func(t *testing.T) {
			p := optimizedPlan(t, w.reg, w.text)
			for _, k := range []int{0, 1, 3} {
				r := &Runner{Registry: w.reg, Cache: card.OneCall, K: k}
				want, err := r.Run(context.Background(), p)
				if err != nil {
					t.Fatal(err)
				}
				for name, chains := range map[string][][]int{"singleton": singletonChains(p), "maximal": maximalChains(p)} {
					var mu sync.Mutex
					stats := Stats{Calls: map[string]int64{}, Fetches: map[string]int64{}}
					frag := &Runner{Registry: w.reg, Cache: card.OneCall}
					got, err := r.RunChains(context.Background(), p, chains, replayStage(frag, p, chains, func(s Stats) {
						mu.Lock()
						defer mu.Unlock()
						for svc, n := range s.Calls {
							stats.Calls[svc] += n
						}
						for svc, n := range s.Fetches {
							stats.Fetches[svc] += n
						}
					}))
					if err != nil {
						t.Fatalf("k=%d %s: %v", k, name, err)
					}
					if !reflect.DeepEqual(want.Head, got.Head) || !reflect.DeepEqual(want.Rows, got.Rows) || !reflect.DeepEqual(want.Tuples, got.Tuples) {
						t.Fatalf("k=%d %s: substituted run diverges from Run:\n substituted: %v\n run:         %v", k, name, got.Rows, want.Rows)
					}
					if len(got.Stats.Calls) != 0 {
						t.Fatalf("k=%d %s: scheduler accounted calls it did not make: %v", k, name, got.Stats.Calls)
					}
					if k == 0 && !reflect.DeepEqual(want.Stats, stats) {
						t.Fatalf("%s: drained accounting %v, Run %v", name, stats, want.Stats)
					}
				}
			}
		})
	}
}

// TestRunChainsShape: overlapping and non-linear substitutions are
// rejected up front.
func TestRunChainsShape(t *testing.T) {
	w, p := travelPlan(t, simweb.PlanSTopology())
	r := &Runner{Registry: w.Registry, Cache: card.OneCall}
	never := func(context.Context, int, <-chan Tuple, func(Tuple) error) error {
		t.Error("stage ran for a rejected substitution")
		return nil
	}
	if _, err := r.RunChains(context.Background(), p, [][]int{chainS[:2], chainS[1:]}, never); err == nil {
		t.Fatal("overlapping chains accepted")
	}
	if _, err := r.RunChains(context.Background(), p, [][]int{{simweb.AtomConf, simweb.AtomFlight}}, never); err == nil {
		t.Fatal("non-adjacent chain accepted")
	}
}

// TestEarlyTerminationBoundsDownstreamCalls is the call-count form of
// the time-to-first-K win, free of scheduling assumptions: on the pipe
// src → step, where src yields n tuples and step answers each with
// exactly one row, a K=1 run can have step invoked only for the tuple
// the output took, the BufferSize tuples its outgoing arc holds, and
// the one in flight when the cancellation landed — however the stages
// interleave — while the materializing reference drain invokes it n
// times.
func TestEarlyTerminationBoundsDownstreamCalls(t *testing.T) {
	const n, buffer = 60, 4
	dom := schema.Domain{Name: "D", Kind: schema.NumberValue, DistinctValues: n}
	sig := func(name, pattern string) *schema.Signature {
		return &schema.Signature{
			Name:     name,
			Attrs:    []schema.Attribute{{Name: "A", Domain: dom}, {Name: "B", Domain: dom}},
			Patterns: []schema.AccessPattern{schema.MustPattern(pattern)},
			Kind:     schema.Exact,
			Stats:    schema.Stats{ERSPI: 1},
		}
	}
	var srcRows, stepRows [][]schema.Value
	for i := 0; i < n; i++ {
		srcRows = append(srcRows, []schema.Value{schema.N(0), schema.N(float64(i))})
		stepRows = append(stepRows, []schema.Value{schema.N(float64(i)), schema.N(float64(i))})
	}
	reg := service.NewRegistry()
	for _, svc := range []service.Service{
		tabsvc.MustNew(sig("src", "oo"), srcRows, tabsvc.Latency{}),
		tabsvc.MustNew(sig("step", "io"), stepRows, tabsvc.Latency{}),
	} {
		if err := reg.Register(svc); err != nil {
			t.Fatal(err)
		}
	}
	q, err := cq.Parse("q(X, Y, Z) :- src(X, Y), step(Y, Z).")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := reg.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Resolve(sch); err != nil {
		t.Fatal(err)
	}
	asn := abind.Assignment{q.Atoms[0].Sig.Patterns[0], q.Atoms[1].Sig.Patterns[0]}
	p, err := plan.Build(q, asn, plan.Chain([]int{0, 1}), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}

	drain := &Runner{Registry: reg, Cache: card.NoCache, Materialize: true}
	full, err := drain.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rows) != n || full.Stats.Calls["step"] != n {
		t.Fatalf("reference drain: %d rows, %d step calls; want %d of each", len(full.Rows), full.Stats.Calls["step"], n)
	}
	for i := 0; i < 20; i++ {
		first := &Runner{Registry: reg, Cache: card.NoCache, K: 1, BufferSize: buffer}
		res, err := first.Run(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Rows, full.Rows[:1]) {
			t.Fatalf("run %d: rows = %v, want %v", i, res.Rows, full.Rows[:1])
		}
		if got := res.Stats.Calls["step"]; got > buffer+2 {
			t.Fatalf("run %d: step called %d times at K=1, bound is %d (drain: %d)", i, got, buffer+2, n)
		}
	}
}
