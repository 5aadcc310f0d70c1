package exec

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"mdq/internal/card"
	"mdq/internal/cq"
	"mdq/internal/plan"
	"mdq/internal/schema"
	"mdq/internal/serve"
	"mdq/internal/service"
	"mdq/internal/trace"
)

// nodeSpan opens the plan-node span for a stage when the context is
// traced: named "node:<label>", carrying the optimizer's estimated
// cardinalities from the plan annotations next to an Observed block
// the stage fills in as tuples flow — the estimate-vs-actual audit
// row for this node. It returns the (possibly re-wired) context and
// a nil span on the untraced fast path, where the whole call is one
// pointer check.
func nodeSpan(ctx context.Context, n *plan.Node) (context.Context, *trace.Span) {
	sp := trace.From(ctx)
	if sp == nil {
		return ctx, nil
	}
	nsp := sp.Child("node:" + n.Label())
	nsp.SetEst(n.TIn, n.Calls, n.TOut)
	nsp.AddObs(0, 0, 0, 0) // materialize Obs: the node executed
	return trace.With(ctx, nsp), nsp
}

// budgetAbort translates an execution error into the request budget's
// violation when one tripped: a run cancelled because the budget
// deadline expired surfaces as the budget error (clean JSON at the
// serving layer) instead of a bare context cancellation. Errors with
// no budget behind them pass through unchanged.
func budgetAbort(ctx context.Context, err error) error {
	if b := serve.FromContext(ctx); b != nil {
		if berr := b.Err(); berr != nil {
			return berr
		}
	}
	return err
}

// maxParallel bounds concurrent invocations per stage in ParallelCalls
// mode: it is the size of a dispatch window.
const maxParallel = 16

// Runner executes query plans against registered services as a
// concurrent dataflow: one stage per plan node, channels along the
// arcs, logical caching in front of every service, and early
// termination once k answers are produced (§2.2: "we retrieve only
// the fraction of tuples of proliferative services that are
// sufficient to obtain the first k query answers").
type Runner struct {
	// Registry resolves service names to implementations.
	Registry *service.Registry
	// Cache selects the logical caching level (§5.1).
	Cache card.CacheMode
	// K stops execution after k result tuples; 0 drains the plan.
	K int
	// Clock accounts for simulated service time; nil ignores it
	// (counts only).
	Clock Clock
	// ParallelCalls dispatches a stage's invocations concurrently,
	// maxParallel at a time, instead of sequentially — the separate
	// multithreading test of §6. Its results arrive interleaved across
	// the concurrent calls, which degrades the one-call cache as the
	// paper observed; the interleaving is fixed by the input, so the
	// call counts are too (see dispatchWindow).
	ParallelCalls bool
	// SharedCache, when set, is used instead of a fresh cache built
	// from Cache — the mechanism behind continued executions (§2.2):
	// run a plan, raise its fetch factors, and re-run with the same
	// cache so only the new fetches reach the services.
	SharedCache Cache
	// ResultCache, when set, layers a shared service-call result
	// store under the per-run cache (NewTieredCache): lookups fall
	// through to it, writes land in it, and hits cost neither a
	// budget charge nor a logical call. Point it at a
	// rescache.Store bound to the registry's epoch feed so a stats
	// bump can never serve stale rows. Unlike SharedCache it
	// composes with — rather than replaces — the run cache, so §5.1
	// cache-mode semantics within a run are preserved.
	ResultCache Cache
	// BufferSize is the per-arc channel capacity of the dataflow (0
	// means DefaultBufferSize). It is the streaming runtime's
	// memory/latency dial: each arc buffers at most BufferSize tuples,
	// so a larger value lets fast producers run further ahead of slow
	// consumers (fewer stalls, more buffered tuples), while a smaller
	// value bounds memory tighter and applies backpressure sooner.
	BufferSize int
	// Materialize restores the pre-streaming join path: drain both
	// join inputs, then traverse the buffered Cartesian plane with
	// JoinPairs. Output is identical to the streaming operators (the
	// traversal order is the same); only the emission timing and the
	// buffering differ. It exists as the differential baseline the
	// streaming runtime is tested and benchmarked against.
	Materialize bool
	// JoinExcessPeak, when non-nil, is raised to the largest number of
	// tuples any streaming join buffered beyond its still-needed
	// frontier (see StreamJoin). Test instrumentation for the
	// bounded-memory contract; nil costs nothing.
	JoinExcessPeak *atomic.Int64
	// Feedback, when non-nil, closes the adaptive loop: after each
	// run the observed per-service call and fetch cardinalities are
	// offered back to the services' Observed wrappers (§5: profiles
	// are "periodically updated, also taking advantage of subsequent
	// invocations"), refreshing profiled statistics — and bumping
	// their registry epochs — when the policy's thresholds are met.
	// A refresh publishes everything the wrapper observed: the scalar
	// profile (erspi, response time, chunk size) and the per-attribute
	// value distributions accumulated from result rows, so cached
	// template plans revalidate against value-sensitive costs learned
	// from real traffic. Services not wrapped by service.Observe are
	// unaffected; wrap a whole registry with Registry.ObserveAll.
	Feedback *service.FeedbackPolicy
}

// Stats aggregates per-service call accounting for a run; Calls
// counts logical invocations that reached the service (after the
// logical cache), Fetches counts request–responses (a chunked call
// issues up to F).
type Stats struct {
	Calls   map[string]int64
	Fetches map[string]int64
}

// Result is the outcome of a plan execution.
type Result struct {
	// Head names the projected columns.
	Head []cq.Var
	// Rows holds the head projections in production order (the
	// global ranking order composed by the join strategies).
	Rows [][]schema.Value
	// Tuples holds the full variable bindings of each result.
	Tuples []Tuple
	// Stats is the per-service call accounting.
	Stats Stats
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// FirstRow is the wall-clock time from the start of the run to
	// the first result row (0 when the run produced none) — the
	// streaming runtime's time-to-first-answer signal, surfaced as
	// first_row_ms in the serving slowlog and as the
	// mdq_exec_first_row_seconds histogram.
	FirstRow time.Duration
}

// runCache builds the cache stack for one execution: the per-run
// logical cache (or the caller-supplied SharedCache of a continued
// execution), tiered over the shared ResultCache when one is wired.
func (r *Runner) runCache() Cache {
	cache := r.SharedCache
	if cache == nil {
		cache = NewCache(r.Cache)
	}
	if r.ResultCache != nil {
		cache = NewTieredCache(cache, r.ResultCache)
	}
	return cache
}

// bufferSize resolves the per-arc channel capacity.
func (r *Runner) bufferSize() int {
	if r.BufferSize > 0 {
		return r.BufferSize
	}
	return DefaultBufferSize
}

// Run executes the plan. The plan must be resolved and validated.
func (r *Runner) Run(ctx context.Context, p *plan.Plan) (*Result, error) {
	return r.RunChains(ctx, p, nil, nil)
}

// feedback offers each touched service's observation window a
// refresh after the run, per the runner's feedback policy. The
// invocations themselves were already recorded by the Observed
// wrappers as traffic flowed through them; this is the periodic
// "absorb what execution has learned" step, taken service by service
// so only genuinely drifted profiles bump their epochs.
func (r *Runner) feedback(ex *execution) {
	if r.Feedback == nil || r.Registry == nil {
		return
	}
	for name := range ex.calls {
		svc, ok := r.Registry.Lookup(name)
		if !ok {
			continue
		}
		if ob, ok := svc.(*service.Observed); ok {
			ob.MaybeRefresh(*r.Feedback)
		}
	}
}

func (ex *execution) runService(ctx context.Context, n *plan.Node, in *edge, outs []*edge) error {
	defer closeAll(outs)
	ctx, nsp := nodeSpan(ctx, n)
	defer nsp.End()
	iv, err := NewNodeInvoker(ex.runner.Registry, n, ex.ix, ex.cache, ex.calls[n.Atom.Service])
	if err != nil {
		return err
	}
	st := &svcStage{ex: ex, iv: iv}

	if !ex.runner.ParallelCalls {
		for t := range in.ch {
			// A cancelled run (k satisfied downstream, budget trip,
			// external abort) stops invoking services immediately
			// instead of working through the buffered backlog.
			if ctx.Err() != nil {
				return nil
			}
			results, err := st.process(ctx, t)
			if err != nil {
				return err
			}
			nsp.AddObs(1, int64(len(results)), 0, 0)
			for _, rt := range results {
				if err := emit(ctx, outs, rt); err != nil {
					return nil // downstream satisfied
				}
			}
		}
		return nil
	}

	// Multithreaded dispatch (§6), one window of maxParallel input
	// tuples at a time (see dispatchWindow). The windows are fixed runs
	// of the input, not whatever happens to be pending, so what the
	// stage calls does not depend on arrival timing.
	window := make([]Tuple, 0, maxParallel)
	for t := range in.ch {
		if ctx.Err() != nil {
			return nil
		}
		window = append(window, t)
		if len(window) == maxParallel {
			if err := st.dispatchWindow(ctx, nsp, window, outs); err != nil {
				return err
			}
			window = window[:0]
		}
	}
	if len(window) == 0 || ctx.Err() != nil {
		return nil
	}
	return st.dispatchWindow(ctx, nsp, window, outs)
}

// dispatchWindow runs one window of a multithreaded stage. The window
// is decided in input order against the logical cache as it stood when
// the window opened: a tuple the cache answers is a hit, and tuples
// whose call the cache does not answer share one call per key — a
// get-or-compute, not two concurrent misses — except under no cache,
// which repeats every call (§5.1). The window's calls then run on
// parallel threads; once all have returned their entries land in the
// cache in input order, and the results leave interleaved tuple by
// tuple across the window, as parallel threads' answers do. That
// interleaving is what degrades a one-call cache downstream, as the
// paper observed; since none of it depends on goroutine scheduling,
// the calls a plan makes are a function of the plan and its input.
func (st *svcStage) dispatchWindow(ctx context.Context, nsp *trace.Span, window []Tuple, outs []*edge) error {
	iv := st.iv
	looks := make([]lookup, len(window))
	owner := make([]int, len(window)) // the tuple whose call answers this one; -1 for a hit
	byKey := map[string]int{}
	share := st.ex.runner.Cache != card.NoCache
	for i, t := range window {
		l, err := iv.lookup(t)
		if err != nil {
			return err
		}
		looks[i] = l
		j, ok := byKey[l.key]
		switch {
		case l.hit:
			owner[i] = -1
		case ok && share:
			owner[i] = j
		default:
			owner[i] = i
			byKey[l.key] = i
		}
	}
	entries := make([]Entry, len(window))
	errs := make([]error, len(window))
	var wg sync.WaitGroup
	for i := range window {
		if owner[i] != i {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entry, elapsed, err := iv.fetch(ctx, looks[i])
			if err == nil && st.ex.runner.Clock != nil && elapsed > 0 {
				if st.ex.runner.Clock.Sleep(ctx, elapsed) != nil {
					err = context.Canceled
				}
			}
			entries[i], errs[i] = entry, err
		}(i)
	}
	wg.Wait()
	canceled := false
	for _, err := range errs {
		if err == context.Canceled {
			canceled = true
		} else if err != nil {
			return err
		}
	}
	if canceled {
		return nil
	}
	for i := range window {
		if owner[i] == i {
			iv.Cache.Put(iv.Node.Atom.Service, looks[i].key, entries[i])
		}
	}
	results := make([][]Tuple, len(window))
	for i, t := range window {
		rows := looks[i].entry.Rows
		if owner[i] >= 0 {
			rows = entries[owner[i]].Rows
		}
		out, err := iv.Expand(t, rows)
		if err != nil {
			return err
		}
		nsp.AddObs(1, int64(len(out)), 0, 0)
		results[i] = out
	}
	for r, more := 0, true; more; r++ {
		more = false
		for _, out := range results {
			if r >= len(out) {
				continue
			}
			more = true
			if emit(ctx, outs, out[r]) != nil {
				return nil // downstream satisfied
			}
		}
	}
	return nil
}

type svcStage struct {
	ex *execution
	iv *NodeInvoker
}

// process performs the logical invocation for one input tuple:
// cache lookup, up to F fetches on miss (accounted against the
// clock), row binding and local predicate evaluation.
func (st *svcStage) process(ctx context.Context, t Tuple) ([]Tuple, error) {
	rows, _, elapsed, err := st.iv.Call(ctx, t)
	if err != nil {
		return nil, err
	}
	if st.ex.runner.Clock != nil && elapsed > 0 {
		if err := st.ex.runner.Clock.Sleep(ctx, elapsed); err != nil {
			return nil, context.Canceled
		}
	}
	return st.iv.Expand(t, rows)
}

// runJoin implements the parallel join strategies of §3.3 / [4] as a
// streaming operator: the Cartesian plane is traversed in the
// strategy's order (Figure 5) with pairs emitted as soon as the order
// permits — see StreamJoin for the per-method contract. Tuples pair
// successfully when their shared variables agree (lineage or value
// equi-join) and the join's predicates hold. With Runner.Materialize
// set, the pre-streaming drain-then-JoinPairs path runs instead (the
// differential baseline; output is identical either way).
func (ex *execution) runJoin(ctx context.Context, n *plan.Node, ins []*edge, outs []*edge) error {
	defer closeAll(outs)
	ctx, nsp := nodeSpan(ctx, n)
	defer nsp.End()
	if ex.runner.Materialize {
		return ex.runJoinMaterialized(ctx, n, ins, outs)
	}
	return StreamJoin(ctx, n.Method, ins[0].ch, ins[1].ch, n.JoinPreds, ex.ix, func(m Tuple) error {
		nsp.AddObs(0, 1, 0, 0)
		return emit(ctx, outs, m)
	}, ex.runner.JoinExcessPeak)
}

// runJoinMaterialized is the seed-era join stage: drain both input
// streams, then traverse the buffered plane with JoinPairs. Kept as
// the baseline the streaming operators are differential-tested and
// benchmarked against (Runner.Materialize).
func (ex *execution) runJoinMaterialized(ctx context.Context, n *plan.Node, ins []*edge, outs []*edge) error {
	var left, right []Tuple
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for t := range ins[0].ch {
			left = append(left, t)
		}
	}()
	go func() {
		defer wg.Done()
		for t := range ins[1].ch {
			right = append(right, t)
		}
	}()
	wg.Wait()
	if ctx.Err() != nil {
		return nil
	}

	merged, err := JoinPairs(n.Method, left, right, n.JoinPreds, ex.ix)
	if err != nil {
		return err
	}
	trace.From(ctx).AddObs(0, int64(len(merged)), 0, 0)
	for _, m := range merged {
		if emit(ctx, outs, m) != nil {
			return nil
		}
	}
	return nil
}
