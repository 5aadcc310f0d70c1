package dist_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	. "mdq/internal/dist"
	"mdq/internal/serve"
	"mdq/internal/trace"
)

// tracedCtx returns a context carrying a fresh trace root plus the
// trace itself.
func tracedCtx(ctx context.Context) (context.Context, *trace.Trace, *trace.Span) {
	tr := trace.New("")
	root := tr.Root("query")
	return trace.With(ctx, root), tr, root
}

// TestTracedExecutionDifferential is the tracing-is-free contract:
// running the same plan with tracing on and off returns byte-identical
// rows, tuples and head, and charges the identical number of logical
// service calls to the request budget — on every simweb world, over
// LocalTransport and over real loopback HTTP. Tracing observes the
// pipeline; it must never add, remove or reorder work.
func TestTracedExecutionDifferential(t *testing.T) {
	type clusterFn func(t testing.TB, w world, n int) (*Coordinator, []*Worker)
	transports := []struct {
		name string
		make clusterFn
	}{
		{"local", localCluster},
		{"http", httpCluster},
	}
	for _, tp := range transports {
		tp := tp
		for _, w := range worlds {
			w := w
			t.Run(tp.name+"/"+w.name, func(t *testing.T) {
				// Untraced reference run on its own fresh cluster, under an
				// uncapped accounting budget. Full drain (K=0): top-K early
				// termination cancels producers at racy times, so charged
				// calls are only deterministic run to run without it.
				plain, _ := tp.make(t, w, 2)
				plain.K = 0
				p := optimizeOn(t, plain, w.text)
				bPlain := serve.NewBudget(time.Minute, 0)
				ctxPlain, cancelPlain := bPlain.Context(context.Background())
				defer cancelPlain()
				want, err := plain.ExecutePlan(ctxPlain, p)
				if err != nil {
					t.Fatal(err)
				}

				// Traced run on an identically fresh cluster.
				traced, _ := tp.make(t, w, 2)
				traced.K = 0
				p2 := optimizeOn(t, traced, w.text)
				bTraced := serve.NewBudget(time.Minute, 0)
				ctxTraced, cancelTraced := bTraced.Context(context.Background())
				defer cancelTraced()
				ctxTraced, tr, root := tracedCtx(ctxTraced)
				got, err := traced.ExecutePlan(ctxTraced, p2)
				if err != nil {
					t.Fatal(err)
				}
				root.End()

				assertSameExecution(t, want, got)
				if bPlain.Calls() == 0 {
					t.Fatal("reference run charged no calls")
				}
				if bPlain.Calls() != bTraced.Calls() {
					t.Fatalf("tracing changed the budget charge: untraced %d calls, traced %d",
						bPlain.Calls(), bTraced.Calls())
				}
				if len(tr.Spans()) < 2 {
					t.Fatalf("traced run recorded %d spans", len(tr.Spans()))
				}
			})
		}
	}
}

// TestTracedDistributedSpanTree: a traced distributed run yields one
// rooted tree with the fleet's template plane legible in it — a miss is
// the probe's dist.search.dispatch (probe=miss) plus one dispatch per
// shard, a hit is the probe's dispatch alone (probe=hit), each with its
// worker.search spliced beneath — worker fragment spans spliced under
// their dist.execute.dispatch spans, and every plan-node span carrying
// both the optimizer estimate and the observed counters.
func TestTracedDistributedSpanTree(t *testing.T) {
	w := worlds[0]
	co, _ := localCluster(t, w, 2)
	q := resolve(t, w.text, mustSchema(t, co.Registry))
	for _, want := range []struct {
		probe      string
		dispatches int
	}{{"miss", 3}, {"hit", 1}} {
		ctx, tr, root := tracedCtx(context.Background())
		res, err := co.OptimizeTemplate(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := co.ExecutePlan(ctx, res.Best); err != nil {
			t.Fatal(err)
		}
		root.End()

		roots := trace.Tree(tr.Spans())
		if len(roots) != 1 || roots[0].Name != "query" {
			t.Fatalf("trace has %d roots (first %q), want the single query root",
				len(roots), roots[0].Name)
		}
		var probes []string
		var searchDispatches, searchSpliced, execDispatches, fragSpliced, nodeSpans int
		trace.Walk(roots, func(n *trace.TreeNode) {
			switch n.Name {
			case "dist.search.dispatch":
				searchDispatches++
				if p, ok := n.Attrs["probe"]; ok {
					probes = append(probes, p)
				}
				for _, c := range n.Children {
					if c.Name == "worker.search" {
						searchSpliced++
					}
				}
			case "dist.execute.dispatch":
				execDispatches++
				spliced := false
				for _, c := range n.Children {
					if c.Name == "worker.fragment" {
						fragSpliced++
						spliced = true
					}
				}
				// Only a failed attempt may lack the worker's spans: a
				// fragment stopped at K still returns them.
				if _, failed := n.Attrs["error"]; !failed && !spliced {
					t.Errorf("probe=%s: dispatch of %s on %s has no error and no worker.fragment child",
						want.probe, n.Attrs["atoms"], n.Attrs["worker"])
				}
			}
			if len(n.Name) > 5 && n.Name[:5] == "node:" {
				nodeSpans++
				if n.Est == nil {
					t.Errorf("plan-node span %s has no estimate", n.Name)
				}
				if n.Obs == nil {
					t.Errorf("plan-node span %s has no observations", n.Name)
				}
			}
		})
		if len(probes) != 1 || probes[0] != want.probe {
			t.Fatalf("probe dispatches tagged %v, want one probe=%s", probes, want.probe)
		}
		if searchDispatches != want.dispatches || searchSpliced != want.dispatches {
			t.Fatalf("probe=%s: %d search dispatch spans with %d worker.search spliced, want %d of each",
				want.probe, searchDispatches, searchSpliced, want.dispatches)
		}
		if execDispatches == 0 || fragSpliced == 0 {
			t.Fatalf("execute dispatches %d / spliced fragments %d, want both > 0",
				execDispatches, fragSpliced)
		}
		if nodeSpans == 0 {
			t.Fatal("no plan-node spans recorded")
		}
	}
}

// TestTracedFailureSettlesNoGoroutineLeak extends the settle contract
// to traced queries: a traced run that trips its call budget and a
// traced run that fails over mid-stream must both unwind every relay
// goroutine, exactly like their untraced counterparts.
func TestTracedFailureSettlesNoGoroutineLeak(t *testing.T) {
	w := worlds[2]
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		// Budget trip mid-execution under tracing.
		co, _ := localCluster(t, w, 2)
		p := optimizeOn(t, co, w.text)
		b := serve.NewBudget(0, 2)
		ctx, cancel := b.Context(context.Background())
		ctx, _, root := tracedCtx(ctx)
		if _, err := co.ExecutePlan(ctx, p); !errors.Is(err, serve.ErrBudgetExceeded) {
			t.Fatalf("run %d: traced budget trip: %v", i, err)
		}
		root.End()
		cancel()

		// Mid-stream worker death with failover, traced.
		co2, _ := localCluster(t, w, 2)
		faults := wrapFaults(co2)
		co2.BatchSize = 2
		p2 := optimizeOn(t, co2, w.text)
		faults[0].KillExecuteAfter(0, -1)
		ctx2, _, root2 := tracedCtx(context.Background())
		if _, err := co2.ExecutePlan(ctx2, p2); err != nil {
			t.Fatalf("run %d: traced mid-stream failover: %v", i, err)
		}
		root2.End()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines did not settle to baseline %d\n%s",
				before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTracedFailoverAnnotatesAttempts: when a fragment fails over, the
// trace narrates it — one dispatch span per attempt, the failed one
// carrying an error attribute, the final one carrying the spliced
// worker spans.
func TestTracedFailoverAnnotatesAttempts(t *testing.T) {
	w := worlds[2]
	co, _ := localCluster(t, w, 2)
	faults := wrapFaults(co)
	p := optimizeOn(t, co, w.text)
	faults[0].FailNext(OpExecute, 1)
	ctx, tr, root := tracedCtx(context.Background())
	if _, err := co.ExecutePlan(ctx, p); err != nil {
		t.Fatal(err)
	}
	root.End()

	var failed, retried int
	trace.Walk(trace.Tree(tr.Spans()), func(n *trace.TreeNode) {
		if n.Name != "dist.execute.dispatch" {
			return
		}
		if n.Attrs["error"] != "" {
			failed++
		}
		if n.Attrs["attempt"] != "0" && n.Attrs["attempt"] != "" {
			retried++
		}
	})
	if failed == 0 {
		t.Fatal("no dispatch span carries the injected failure")
	}
	if retried == 0 {
		t.Fatal("no dispatch span records a retry attempt")
	}
}

// TestTracedBudgetTripClosesDispatchSpan: a dispatch refused because
// the call cap is already spent — the request the slowlog retains —
// still leaves a finished dist.execute.dispatch span naming the budget
// error, not an open, error-free one.
func TestTracedBudgetTripClosesDispatchSpan(t *testing.T) {
	w := worlds[0]
	co, _ := localCluster(t, w, 2)
	p := optimizeOn(t, co, w.text)
	b := serve.NewBudget(0, 1)
	if err := b.Charge(1); err != nil {
		t.Fatal(err) // the cap is consumed exactly, not exceeded
	}
	ctx, cancel := b.Context(context.Background())
	defer cancel()
	ctx, tr, root := tracedCtx(ctx)
	if _, err := co.ExecutePlan(ctx, p); !errors.Is(err, serve.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	root.End()
	dispatches := 0
	for _, sp := range tr.Spans() {
		if sp.Name != "dist.execute.dispatch" {
			continue
		}
		dispatches++
		if sp.Dur == 0 || sp.Attrs["error"] == "" {
			t.Errorf("dispatch span %d (attempt %s on %s): dur %d, error %q — a refused dispatch must end and say why",
				sp.ID, sp.Attrs["attempt"], sp.Attrs["worker"], sp.Dur, sp.Attrs["error"])
		}
	}
	if dispatches == 0 {
		t.Fatal("no dist.execute.dispatch span recorded")
	}
}
