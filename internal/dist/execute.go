package dist

// Fragment execution: the plane that runs a *winning* plan across the
// fleet instead of on the coordinator. The coordinator partitions the
// plan DAG into linear chains (see PartitionPlan), ships each chain —
// as the familiar skeleton wire form plus the tuples flowing into it —
// to a worker hosting the chain's services, and the worker runs it
// with the stock executor, streaming the tail's tuples back in
// batches. Cross-chain combination (parallel joins, head projection,
// k-truncation) happens at the coordinator with the executor's own
// join machinery, so the distributed result is byte-identical to a
// coordinator-local run. Fragment results also piggyback the worker's
// pending statistics-epoch bumps — the reverse gossip path: an
// executing worker whose feedback refreshed a profile reports it
// upstream, the coordinator re-bumps its own epochs, and a running
// GossipLoop fans the invalidation out to the rest of the fleet.

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"mdq/internal/abind"
	"mdq/internal/card"
	"mdq/internal/cq"
	"mdq/internal/exec"
	"mdq/internal/plan"
	"mdq/internal/schema"
	"mdq/internal/serve"
	"mdq/internal/service"
	"mdq/internal/trace"
)

// DefaultExecuteBatch is the tuple batch size of the fragment
// streaming wire when ExecuteRequest.BatchSize is unset.
const DefaultExecuteBatch = 64

// ExecuteRequest ships one plan fragment for worker-side execution.
// The full plan travels as its skeleton (query text, access-pattern
// assignment, topology, per-atom fetch factors) so the worker can
// rebuild it against its own registry; Atoms names the chain this
// worker actually runs, and Seeds carries the tuples flowing into the
// chain's head.
type ExecuteRequest struct {
	// Query is the resolved query as datalog text (cq.Query.String).
	Query string `json:"query"`
	// Assignment is the plan's access-pattern assignment, one pattern
	// string per atom.
	Assignment []string `json:"assignment"`
	// Topology is the plan's partial order over atoms.
	Topology *plan.Topology `json:"topology"`
	// Fetches is the phase-3 fetch factor per atom (0 keeps the
	// built default of 1).
	Fetches []int `json:"fetches"`
	// Atoms is the fragment chain, as atom indexes in execution order.
	Atoms []int `json:"atoms"`
	// CacheMode is the logical caching level name (card.ModeByName).
	CacheMode string `json:"cache_mode"`
	// Vars is the plan's variable layout in slot order — a cross-check
	// that both sides derived the same VarIndex for the tuple wire.
	Vars []string `json:"vars"`
	// Seeds are the tuples flowing into the chain's head.
	Seeds []WireTuple `json:"seeds"`
	// BatchSize overrides the streaming batch size (0 means
	// DefaultExecuteBatch).
	BatchSize int `json:"batch_size,omitempty"`
	// BudgetMillis is the time remaining in the coordinator's query
	// budget at dispatch, in milliseconds (0 = no deadline). Shipped
	// as a relative duration rather than an absolute instant so clock
	// skew between processes cannot inflate or collapse the limit; the
	// worker rebuilds a local serve.Budget from it, which aborts the
	// fragment when it expires.
	BudgetMillis int64 `json:"budget_millis,omitempty"`
	// BudgetCalls is the number of logical service calls remaining in
	// the coordinator's budget at dispatch (0 = uncapped). The worker
	// charges its fragment's calls against it.
	BudgetCalls int64 `json:"budget_calls,omitempty"`
	// TraceID and TraceSpan propagate the coordinator's trace context
	// over the wire — the trace header of the execute RPC, honored
	// identically by LocalTransport and HTTPTransport (which also
	// mirrors the ID in an X-Mdq-Trace-Id header). A non-empty TraceID
	// makes the worker record its fragment execution into a local
	// trace seeded with it and ship the spans back on
	// ExecuteResult.Spans; TraceSpan names the dispatching span for
	// correlation (the coordinator reparents the shipped spans under
	// it when splicing).
	TraceID   string `json:"trace_id,omitempty"`
	TraceSpan uint64 `json:"trace_span,omitempty"`
	// Est carries the coordinator's per-atom plan estimates,
	// index-aligned with the query's atoms. The worker rebuilds the
	// skeleton unpriced (buildSkeleton does not annotate), so without
	// this the worker-side node spans would audit against zeros; only
	// traced requests ship it.
	Est []trace.Estimate `json:"est,omitempty"`
}

// ExecuteResult is the final accounting frame of one fragment
// execution.
type ExecuteResult struct {
	// Tuples counts the tuples streamed back (a cross-check against
	// what the caller received).
	Tuples int `json:"tuples"`
	// Calls and Fetches are the worker-side per-service invocation
	// counters for the fragment.
	Calls   map[string]int64 `json:"calls,omitempty"`
	Fetches map[string]int64 `json:"fetches,omitempty"`
	// Bumps are the worker's pending local statistics-epoch bumps
	// (Worker.DrainBumps), piggybacked for the reverse gossip path.
	Bumps []service.EpochBump `json:"bumps,omitempty"`
	// Spans are the worker-side execution spans of a traced request
	// (ExecuteRequest.TraceID), in worker-local ID space — piggybacked
	// on the accounting frame exactly like the epoch bumps above; the
	// coordinator splices them under its dispatch span
	// (trace.Trace.Splice).
	Spans []trace.Span `json:"spans,omitempty"`
}

// ExecuteFrame is one line of the streamed fragment-execution HTTP
// response (newline-delimited JSON): zero or more Batch frames, then
// exactly one Done frame — or an Error frame if execution failed
// after streaming began.
type ExecuteFrame struct {
	// Batch is one batch of produced tuples.
	Batch []WireTuple `json:"batch,omitempty"`
	// Seq numbers the batch frames of one execution 0, 1, 2, … so the
	// receiving transport can detect a gap (lost frames) and the
	// coordinator's failover resume cursor has a contiguity guarantee
	// to lean on.
	Seq int `json:"seq,omitempty"`
	// Done carries the final accounting; its presence ends the stream.
	Done *ExecuteResult `json:"done,omitempty"`
	// Error aborts the stream with a worker-side failure.
	Error string `json:"error,omitempty"`
	// BudgetExceeded marks Error as a query-budget violation (the
	// worker's rebuilt serve.Budget tripped), so the coordinator's
	// transport can reconstruct the typed serve.ErrBudgetExceeded that
	// JSON stringification would otherwise lose. BudgetReason and
	// BudgetLimit carry the tripped *serve.BudgetError's fields so the
	// reconstruction keeps the violated dimension too.
	BudgetExceeded bool   `json:"budget_exceeded,omitempty"`
	BudgetReason   string `json:"budget_reason,omitempty"`
	BudgetLimit    string `json:"budget_limit,omitempty"`
}

// buildSkeleton rebuilds a plan from its wire skeleton (assignment
// pattern strings + topology) for a resolved query, using the local
// registry's join-method chooser. Both the coordinator's winner
// rebuild and the worker's fragment rebuild go through it, which is
// what keeps the two sides' plan DAGs — node IDs, join methods,
// predicate placement — structurally identical.
func buildSkeleton(q *cq.Query, assignment []string, topo *plan.Topology, chooser plan.MethodChooser) (*plan.Plan, error) {
	if topo == nil || len(assignment) != len(q.Atoms) {
		return nil, fmt.Errorf("dist: skeleton has %d patterns for %d atoms", len(assignment), len(q.Atoms))
	}
	asn := make(abind.Assignment, len(assignment))
	for i, s := range assignment {
		pat, err := schema.ParsePattern(s)
		if err != nil {
			return nil, fmt.Errorf("dist: skeleton assignment: %w", err)
		}
		asn[i] = pat
	}
	p, err := plan.Build(q, asn, topo, plan.Options{ChooseMethod: chooser})
	if err != nil {
		return nil, fmt.Errorf("dist: rebuilding skeleton: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("dist: rebuilt skeleton invalid: %w", err)
	}
	return p, nil
}

// ExecuteFragment rebuilds the shipped plan skeleton against the
// worker's registry and runs the named fragment chain with the stock
// executor (exec.Runner.RunFragment), streaming produced tuples to
// sink in batches as the chain's tail emits them. The final result
// carries the worker-side call accounting and the worker's pending
// statistics-epoch bumps: with a Feedback policy set, the fragment's
// traffic has just been folded into the local profiles, and the bumps
// report that upstream (reverse gossip). A nil sink discards tuples
// (counting only).
//
// A satisfied stop — the sink returns exec.ErrSatisfied, or ctx ends
// with that cause because the calling run holds its K rows — still
// returns the full result: its Tuples counts exactly the tuples handed
// to the sink, including a batch the sink stopped reading partway.
func (w *Worker) ExecuteFragment(ctx context.Context, req ExecuteRequest, sink func(batch []WireTuple) error) (*ExecuteResult, error) {
	if w.ExecuteDisabled {
		return nil, errors.New("dist: fragment execution is disabled on this worker")
	}
	mode, ok := card.ModeByName(req.CacheMode)
	if !ok {
		return nil, fmt.Errorf("dist: unknown cache mode %q", req.CacheMode)
	}
	q, err := cq.Parse(req.Query)
	if err != nil {
		return nil, fmt.Errorf("dist: parsing shipped query: %w", err)
	}
	sch, err := w.reg.Schema()
	if err != nil {
		return nil, err
	}
	if err := q.Resolve(sch); err != nil {
		return nil, fmt.Errorf("dist: resolving shipped query: %w", err)
	}
	p, err := buildSkeleton(q, req.Assignment, req.Topology, w.reg.MethodChooser())
	if err != nil {
		return nil, err
	}
	if len(req.Fetches) != len(p.ServiceNode) {
		return nil, fmt.Errorf("dist: fragment has %d fetch factors for %d atoms", len(req.Fetches), len(p.ServiceNode))
	}
	for i, n := range p.ServiceNode {
		if f := req.Fetches[i]; f > 0 {
			n.Fetches = f
		}
	}
	// A rebuilt skeleton is unpriced; a traced request ships the
	// coordinator's estimates so node spans carry them (the audit
	// compares against the same numbers the plan was chosen by).
	if len(req.Est) == len(p.ServiceNode) {
		for i, n := range p.ServiceNode {
			n.TIn, n.Calls, n.TOut = req.Est[i].TIn, req.Est[i].Calls, req.Est[i].TOut
		}
	}
	ix := exec.NewVarIndex(p)
	if len(req.Vars) != ix.Len() {
		return nil, fmt.Errorf("dist: fragment layout has %d vars, local plan has %d (registries disagree?)", len(req.Vars), ix.Len())
	}
	for i, v := range ix.Vars() {
		if string(v) != req.Vars[i] {
			return nil, fmt.Errorf("dist: fragment layout slot %d is %s, local plan has %s (registries disagree?)", i, req.Vars[i], v)
		}
	}
	seeds := make([]exec.Tuple, len(req.Seeds))
	for i, wt := range req.Seeds {
		if seeds[i], err = decodeTuple(wt, ix.Len()); err != nil {
			return nil, err
		}
	}

	// The coordinator ships the remaining query budget with the
	// fragment; rebuild it locally so the stock invoker charge path
	// enforces it near the services (and the fragment aborts cleanly —
	// not just when the coordinator drops the connection). Any budget
	// already riding the context is detached first: over LocalTransport
	// the coordinator's own Budget would flow straight into the invoker
	// and be charged per call — double-counting everything the
	// coordinator charges again when the accounting frame lands, and
	// leaking charges from attempts that die mid-stream and replay
	// elsewhere. The shipped envelope is the whole contract, exactly as
	// over the wire.
	ctx = serve.WithBudget(ctx, nil)
	if req.BudgetMillis > 0 || req.BudgetCalls > 0 {
		wb := serve.NewBudget(time.Duration(req.BudgetMillis)*time.Millisecond, req.BudgetCalls)
		var cancel context.CancelFunc
		ctx, cancel = wb.Context(ctx)
		defer cancel()
	}
	// The trace context detaches the same way the budget does: over
	// LocalTransport the coordinator's span would flow straight into
	// the runner and record worker node spans directly into the
	// coordinator's trace — bypassing the piggyback path the wire uses,
	// so local and HTTP fleets would produce different trees. Instead
	// the worker always records into its own trace (seeded with the
	// shipped ID, parent 0 — a coordinator span ID could collide with
	// worker-local IDs and corrupt the splice remap) and ships the
	// snapshot back on the result, exactly as over the wire; Splice
	// reparents the root under the dispatching span.
	ctx = trace.With(ctx, nil)
	var wtr *trace.Trace
	var rootSp *trace.Span
	if req.TraceID != "" {
		wtr = trace.New(req.TraceID)
		rootSp = wtr.Root("worker.fragment")
		rootSp.Set("atoms", fmt.Sprint(req.Atoms))
		ctx = trace.With(ctx, rootSp)
	}

	batchSize := req.BatchSize
	if batchSize <= 0 {
		batchSize = DefaultExecuteBatch
	}
	var batch []WireTuple
	count := 0 // tuples handed to sink, whatever it answered
	flush := func() error {
		count += len(batch)
		var err error
		if len(batch) > 0 && sink != nil {
			err = sink(batch)
		}
		batch = nil
		return err
	}
	runner := &exec.Runner{Registry: w.reg, Cache: mode, Feedback: w.Feedback, BufferSize: w.BufferSize, ResultCache: w.ResultCache}
	res, err := runner.RunFragment(ctx, p, req.Atoms, seeds, func(t exec.Tuple) error {
		batch = append(batch, encodeTuple(t))
		if len(batch) >= batchSize {
			return flush()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A sink answering exec.ErrSatisfied has what it needs: the calls
	// were made all the same, so the result still reports them.
	if err := flush(); err != nil && !errors.Is(err, exec.ErrSatisfied) {
		return nil, err
	}
	rootSp.End()
	return &ExecuteResult{
		Tuples:  count,
		Calls:   res.Stats.Calls,
		Fetches: res.Stats.Fetches,
		Bumps:   w.DrainBumps(),
		Spans:   wtr.Spans(),
	}, nil
}

// DiscoverHosts queries every live worker's service list (one
// Transport.Services call each) and returns the hosting sets
// ExecutePlan partitions fragments by, index-aligned with Workers.
// Assign the result to Coordinator.Hosts to skip re-discovery on
// subsequent executions — hosting is static for a fleet's lifetime in
// the common deployment (mdqserve does exactly this at startup). A
// worker the membership view marks down gets an empty hosting set (it
// is no candidate for anything until it rejoins) rather than failing
// the discovery.
func (c *Coordinator) DiscoverHosts(ctx context.Context) ([]map[string]bool, error) {
	hosts := make([]map[string]bool, len(c.Workers))
	for i, tr := range c.Workers {
		if !c.alive(i) {
			hosts[i] = map[string]bool{}
			continue
		}
		names, err := tr.Services(ctx)
		c.reportOutcome(i, err)
		if err != nil {
			return nil, fmt.Errorf("dist: listing services of %s: %w", tr.Name(), err)
		}
		hosts[i] = make(map[string]bool, len(names))
		for _, n := range names {
			hosts[i][n] = true
		}
	}
	return hosts, nil
}

// AbsorbBumps applies worker-originated statistics-epoch bumps to the
// coordinator's registry: each reported service gets a local epoch
// bump, which invalidates the coordinator's subscribed plan caches
// and — through a running GossipLoop — fans the invalidation out to
// every worker in the fleet. This is the coordinator half of the
// reverse gossip path (worker → coordinator → fleet). The epoch
// numbers a worker reports are meaningless across processes (every
// registry counts its own refreshes), so only the service names
// travel onward, renumbered by the coordinator's registry.
func (c *Coordinator) AbsorbBumps(bumps []service.EpochBump) {
	for _, b := range bumps {
		c.Registry.BumpEpoch(b.Service)
	}
}

// sharesRegistry reports whether a transport's worker runs over the
// coordinator's own registry (in-process fleets built from one
// System share it). Such a worker's epoch bumps are already local:
// absorbing them again would re-bump the shared counters on every
// execution, keeping every cache perpetually stale.
func (c *Coordinator) sharesRegistry(tr Transport) bool {
	switch t := tr.(type) {
	case LocalTransport:
		return t.Worker.Registry() == c.Registry
	case *LocalTransport:
		return t.Worker.Registry() == c.Registry
	default:
		return false
	}
}

// ExecutePlan executes a winning plan across the fleet. The plan is
// partitioned into linear fragments (PartitionPlan) and run by the
// executor's own dataflow scheduler (exec.Runner.RunChains) with every
// fragment substituted by a dispatch stage: the stage collects the
// chain's seed tuples, ships them with the plan skeleton to a worker
// hosting the chain, and forwards the worker's ndjson batch stream
// onto the tail's arcs as frames arrive. Everything else — bounded
// arcs (BufferSize tuples each), the parallel joins, head projection,
// cancelling the in-flight fragment streams once K rows are out
// (early termination, §2.2), first-error-wins — is the scheduler's,
// so incomparable fragments dispatch concurrently, wall-clock for a
// bushy plan tracks the slowest branch rather than the sum,
// coordinator memory is bounded by buffer size rather than
// intermediate-result size, and the result is byte-identical to
// running the plan on the coordinator with exec.Runner.Run by
// construction. A fragment's seed tuples are still materialized
// before dispatch — the execute wire is request-then-stream — so the
// bounded-memory claim covers fragment *result* streams, which is
// where proliferative cardinality lives.
//
// Worker-side fragment executions run under each worker's own
// feedback policy; bumps they report are absorbed into this registry
// (AbsorbBumps) unless the worker shares it.
func (c *Coordinator) ExecutePlan(ctx context.Context, p *plan.Plan) (*exec.Result, error) {
	if len(c.Workers) == 0 {
		return nil, errors.New("dist: coordinator has no workers")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// The request budget travels with the context: the deadline is
	// applied to ctx (so in-flight fragment streams abort over the
	// wire when it expires), fragments ship the remaining budget for
	// worker-side enforcement, and the worker-reported call counts are
	// charged here so the cap is global across fragments.
	budget := serve.FromContext(ctx)
	if budget != nil {
		if err := budget.Err(); err != nil {
			return nil, err
		}
		var cancel context.CancelFunc
		ctx, cancel = budget.Context(ctx)
		defer cancel()
	}
	start := time.Now()
	hosts := c.Hosts
	if hosts == nil {
		var err error
		if hosts, err = c.DiscoverHosts(ctx); err != nil {
			return nil, err
		}
	} else {
		// Self-heal a stale hosting snapshot: a worker that was
		// unreachable when Hosts was discovered carries an empty set,
		// and would stay excluded from every candidate list forever —
		// even after rejoining. If such a worker is alive now, refresh
		// so it hosts fragments again (best-effort: on a discovery
		// error the stale snapshot still dispatches to the rest).
		for i := range hosts {
			if len(hosts[i]) == 0 && c.alive(i) {
				if fresh, err := c.DiscoverHosts(ctx); err == nil {
					hosts = fresh
				}
				break
			}
		}
	}
	if len(hosts) != len(c.Workers) {
		return nil, fmt.Errorf("dist: %d hosting sets for %d workers", len(hosts), len(c.Workers))
	}
	frags, err := PartitionPlan(p, hosts)
	if err != nil {
		return nil, err
	}
	chains := make([][]int, len(frags))
	for i, f := range frags {
		chains[i] = f.Atoms
	}

	ix := exec.NewVarIndex(p)
	vars := make([]string, ix.Len())
	for i, v := range ix.Vars() {
		vars[i] = string(v)
	}
	asn := make([]string, len(p.Assignment))
	for i, pat := range p.Assignment {
		asn[i] = pat.String()
	}
	fetches := make([]int, len(p.ServiceNode))
	for i, n := range p.ServiceNode {
		fetches[i] = n.Fetches
	}
	base := ExecuteRequest{
		Query:      p.Query.String(),
		Assignment: asn,
		Topology:   p.Topology,
		Fetches:    fetches,
		CacheMode:  c.Mode.String(),
		Vars:       vars,
		BatchSize:  c.BatchSize,
	}
	// Under a traced context, fragments ship the coordinator plan's
	// estimates (the worker rebuilds unpriced) and each dispatch gets
	// its own span; untraced executions ship neither.
	qsp := trace.From(ctx)
	if qsp != nil {
		base.Est = make([]trace.Estimate, len(p.ServiceNode))
		for i, n := range p.ServiceNode {
			base.Est[i] = trace.Estimate{TIn: n.TIn, Calls: n.Calls, TOut: n.TOut}
		}
	}

	var mu sync.Mutex // guards stats
	stats := exec.Stats{Calls: map[string]int64{}, Fetches: map[string]int64{}}

	// dispatch is the stage standing in for fragment i: it collects the
	// chain's seed tuples (the execute wire ships them with the
	// request), dispatches, and emits the worker's batch stream tuple by
	// tuple as frames arrive. Calls are charged against the budget when
	// the fragment's accounting frame lands, and every returned frame is
	// folded into exec.Stats, the budget and the absorbed epoch bumps
	// before its cross-checks run. A retried fragment charges exactly
	// once: only the attempt that returns a frame reports.
	//
	// Once the output has its K rows the scheduler cancels ctx with
	// exec.ErrSatisfied and emit answers exec.ErrSatisfied. In-process
	// (LocalTransport) the worker's fragment takes that as a satisfied
	// stop and still returns its frame — calls, fetches, bumps, spans —
	// so the fold counts the calls it made. Over HTTP the stream closes
	// at K and the worker sees only a disconnect: that fragment's frame
	// is lost, and its calls go uncounted. Either way the scheduler
	// drops whatever error the torn-down stream (or a late budget charge
	// the cap would reject) produces here: the answer is complete.
	//
	// Failover: a transiently failed dispatch re-runs on the next live
	// hosting candidate. `sent` is the resume cursor — how many tuples
	// earlier attempts already forwarded downstream. Fragment
	// executions are deterministic (same seeds, same skeleton, same
	// per-worker registry contract), so the replacement worker's stream
	// reproduces the dead worker's tuple order exactly; skipping the
	// first `sent` tuples splices the two streams without duplicates,
	// and the joins downstream never notice the failure.
	dispatch := func(ctx context.Context, i int, in <-chan exec.Tuple, emit func(exec.Tuple) error) error {
		f := frags[i]
		var seeds []exec.Tuple
		for t := range in {
			seeds = append(seeds, t)
		}
		if ctx.Err() != nil {
			return context.Canceled
		}
		req := base
		req.Atoms = f.Atoms
		req.Seeds = encodeTuples(seeds)
		cands := f.Candidates
		if len(cands) == 0 {
			cands = []int{f.Worker}
		}
		home := 0
		for i, w := range cands {
			if w == f.Worker {
				home = i
				break
			}
		}
		sent := 0 // resume cursor: tuples already forwarded downstream
		var lastErr error
		for attempt := 0; ; attempt++ {
			target := -1
			for off := 0; off < len(cands); off++ {
				if w := cands[(home+attempt+off)%len(cands)]; c.alive(w) {
					target = w
					break
				}
			}
			if target < 0 {
				if ctx.Err() != nil {
					return context.Canceled
				}
				if lastErr != nil {
					return fmt.Errorf("dist: fragment %v: %w (last failure: %v)", f.Atoms, ErrNoLiveWorkers, lastErr)
				}
				return fmt.Errorf("dist: fragment %v: %w", f.Atoms, ErrNoLiveWorkers)
			}
			tr := c.Workers[target]
			// One dispatch span per attempt: a retried fragment shows up
			// as sibling spans whose attempt/error attrs narrate the
			// failover; the completed attempt carries the spliced worker
			// spans.
			dsp := qsp.Child("dist.execute.dispatch")
			dsp.Set("worker", tr.Name())
			dsp.Set("atoms", fmt.Sprint(f.Atoms))
			dsp.Set("attempt", strconv.Itoa(attempt))
			// fail closes the span of an attempt that did not complete.
			fail := func(err error) error {
				dsp.Set("error", err.Error())
				dsp.End()
				return err
			}
			req.TraceID, req.TraceSpan = dsp.TraceID(), dsp.SpanID()
			req.BudgetMillis, req.BudgetCalls = 0, 0
			if budget != nil {
				if err := budget.Err(); err != nil {
					return fail(err)
				}
				if rem, ok := budget.Remaining(); ok {
					req.BudgetMillis = int64(rem / time.Millisecond)
					if req.BudgetMillis < 1 {
						req.BudgetMillis = 1
					}
				}
				if left, ok := budget.CallsLeft(); ok {
					if left == 0 && len(req.Seeds) > 0 {
						// The cap is exactly consumed and this fragment
						// has tuples to process: the call it would issue
						// trips the budget, so abort before shipping.
						return fail(budget.Charge(1))
					}
					req.BudgetCalls = left
				}
			}
			skip := sent
			streamed := 0 // every tuple received, forwarded or not
			fres, err := tr.ExecuteFragment(ctx, req, func(batch []WireTuple) error {
				streamed += len(batch)
				for _, wt := range batch {
					if skip > 0 {
						// Replayed prefix: an earlier attempt already
						// forwarded this tuple before dying.
						skip--
						continue
					}
					t, derr := decodeTuple(wt, ix.Len())
					if derr != nil {
						return derr
					}
					if serr := emit(t); serr != nil {
						return serr
					}
					sent++
				}
				return nil
			})
			c.reportOutcome(target, err)
			if err != nil {
				fail(err)
				// A budget trip surfaces as the budget error, not as the
				// transport failure it caused (cancelled stream, worker
				// abort) and never as a retry-exhausted transport error:
				// the serving layer maps it to a clean JSON
				// budget-exceeded response.
				if budget != nil {
					if berr := budget.Err(); berr != nil {
						return berr
					}
					var be *serve.BudgetError
					if req.BudgetCalls > 0 && errors.As(err, &be) && be.Reason == "calls" {
						// The worker made the whole shipped cap of calls
						// and refused one more, as the invoker does: its
						// frame is lost, so charge that here — the cap is
						// global even when the output already has its K
						// rows and this error is dropped.
						budget.Charge(req.BudgetCalls + 1)
					}
				}
				if ctx.Err() != nil {
					return context.Canceled
				}
				if IsTransient(err) && attempt < c.Retry.maxRetries() {
					lastErr = err
					c.noteRetry(OpExecute, target)
					if werr := c.Retry.wait(ctx, attempt); werr != nil {
						return context.Canceled
					}
					continue
				}
				return fmt.Errorf("dist: fragment %v on %s: %w", f.Atoms, tr.Name(), err)
			}
			dsp.Splice(fres.Spans)
			dsp.Set("tuples", strconv.Itoa(fres.Tuples))
			dsp.End()
			// The worker made these calls whatever the checks below
			// find, so the frame is folded first.
			var fragCalls int64
			mu.Lock()
			for name, v := range fres.Calls {
				stats.Calls[name] += v
				fragCalls += v
			}
			for name, v := range fres.Fetches {
				stats.Fetches[name] += v
			}
			mu.Unlock()
			if len(fres.Bumps) > 0 && !c.sharesRegistry(tr) {
				c.AbsorbBumps(fres.Bumps)
			}
			var charged error
			if budget != nil {
				charged = budget.Charge(fragCalls)
			}
			if fres.Tuples != streamed {
				return fmt.Errorf("dist: fragment %v on %s reported %d tuples, streamed %d", f.Atoms, tr.Name(), fres.Tuples, streamed)
			}
			if streamed < sent {
				// The replay produced fewer tuples than the cursor says
				// were already forwarded: the replacement worker did not
				// reproduce the dead one's stream (registries disagree?) —
				// fail loudly rather than join a corrupted splice.
				return fmt.Errorf("dist: fragment %v on %s replayed %d tuples below resume cursor %d", f.Atoms, tr.Name(), streamed, sent)
			}
			return charged
		}
	}

	// The coordinator runs no service node itself — every one belongs
	// to a fragment — so the scheduler's Stats are empty and the folded
	// worker accounting takes their place. FirstRow and Elapsed count
	// from ExecutePlan's entry, host discovery and partitioning included.
	setup := time.Since(start)
	runner := &exec.Runner{K: c.K, BufferSize: c.BufferSize, JoinExcessPeak: c.JoinExcessPeak}
	res, err := runner.RunChains(ctx, p, chains, dispatch)
	if err != nil {
		return nil, err
	}
	if budget != nil {
		// The scheduler drops stage errors once the output holds its K
		// rows, a late charge over the cap among them. But the fleet made
		// those calls: concurrent fragments each carry the cap left at
		// their dispatch, so together they can overshoot it. The cap
		// bounds the calls a query makes, not the calls counted before
		// its answer was complete, so an overspent run fails with it.
		if err := budget.Overspent(); err != nil {
			return nil, err
		}
	}
	res.Stats = stats
	res.Elapsed += setup
	if res.FirstRow > 0 {
		res.FirstRow += setup
	}
	return res, nil
}
