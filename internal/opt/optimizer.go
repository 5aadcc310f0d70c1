package opt

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mdq/internal/abind"
	"mdq/internal/card"
	"mdq/internal/cost"
	"mdq/internal/cq"
	"mdq/internal/fetch"
	"mdq/internal/plan"
	"mdq/internal/serve"
	"mdq/internal/trace"
)

// AutoParallelism makes the optimizer use one search worker per
// available CPU (runtime.GOMAXPROCS).
const AutoParallelism = -1

// Optimizer configures the three-phase branch-and-bound search.
type Optimizer struct {
	// Metric is minimized; nil means cost.ExecTime (the paper's
	// examples use the execution time and request–response metrics,
	// §2.3). Implementations must be safe for concurrent use from
	// multiple goroutines when Parallelism enables them (the built-in
	// metrics are stateless and safe).
	Metric cost.Metric
	// Estimator sets the caching model and default selectivities
	// used to annotate candidate plans. A custom DefaultSelectivity
	// function must be pure: workers call it concurrently.
	Estimator card.Config
	// K is the number of answers to optimize for; 0 disables the
	// feasibility requirement (all fetch factors stay at 1).
	K int
	// FetchHeuristic seeds phase 3 (greedy by default).
	FetchHeuristic fetch.Heuristic
	// ChooseMethod picks parallel join methods (registration-time
	// knowledge, §3.3); nil means plan.DefaultMethodChooser. Must be
	// safe for concurrent use (the registry's chooser is).
	ChooseMethod plan.MethodChooser
	// Exhaustive disables pruning, forcing full enumeration; used to
	// validate that branch and bound preserves optimality.
	Exhaustive bool
	// MaxStates caps the number of construction states visited per
	// assignment (safety valve; 0 means 1 << 20).
	MaxStates int
	// KeepAlternatives retains the N best complete plans beyond the
	// optimum (-1 keeps every evaluated plan, for plan-space
	// reports). When set, pruning uses only bounds discovered within
	// each assignment's own search, never the cross-assignment
	// incumbent: the set of plans evaluated — and hence the reported
	// alternatives — is then independent of the phase-1 exploration
	// order, so parallel and sequential searches return identical
	// orderings.
	KeepAlternatives int
	// Parallelism is the number of worker goroutines searching
	// concurrently, sharing one incumbent bound so an improvement
	// found by any worker immediately tightens pruning in all
	// others. The pool works at two granularities: each permissible
	// assignment is a job, and — unless KeepAlternatives pins the
	// walk to its deterministic sequential order — every phase-2
	// construction state is one too, so a single assignment with a
	// huge topology space still spreads across all workers. 0 or 1
	// searches sequentially; AutoParallelism (-1) uses one worker
	// per CPU. The best plan, its cost, and (with KeepAlternatives)
	// the alternatives ordering are deterministic and identical
	// across all parallelism levels; only the StatesVisited/
	// StatesPruned effort counters may vary with worker timing. The
	// one exception is a search truncated by the MaxStates safety
	// valve: which states consume the budget then depends on worker
	// timing, so a truncated parallel search may return a different
	// (still valid) plan than the sequential one.
	Parallelism int
	// Cache, when non-nil, memoizes whole optimization results keyed
	// by the canonical query signature (atoms, constants, patterns,
	// profiled statistics) plus every optimizer knob above. A hit
	// returns a private copy of the cached result with Cached set,
	// skipping the search entirely.
	Cache *PlanCache
	// CacheSalt is mixed into the cache key for state the optimizer
	// cannot fingerprint itself — e.g. the registry version behind
	// ChooseMethod, or the identity of a custom DefaultSelectivity.
	CacheSalt string
	// Epochs, when non-nil, supplies the per-service statistics
	// epochs (service.Registry implements it) that cached entries
	// snapshot, enabling epoch-based invalidation and revalidation.
	Epochs EpochSource
	// RevalidateRatio bounds the cost divergence tolerated when a
	// template cache hit is re-costed for new bindings or refreshed
	// statistics: beyond it the cached skeleton is discarded and a
	// full search runs. Values ≤ 1 mean DefaultRevalidateRatio.
	RevalidateRatio float64
	// Shard restricts phase 1 to one slice of the assignment space
	// (see Shard); the zero value searches the whole space. Distributed
	// optimization gives each remote worker one shard and merges the
	// per-shard winners with the usual plan-signature tie-breaks.
	Shard Shard
	// Bound, when non-nil, is an externally owned incumbent bound
	// shared beyond this search — typically across the workers of a
	// distributed optimization, where a sync loop min-merges the
	// workers' bounds so one worker's feasible plan prunes the others'
	// walks. It may arrive pre-seeded. When nil, each Optimize call
	// creates a private bound. An external bound never changes the
	// plan returned for the searched (sub)space, but the exact-key
	// result cache is bypassed while one is set: how much of a shard's
	// space survives pruning depends on externally delivered bounds,
	// so memoizing those results under a key that cannot express the
	// bound would poison later lookups.
	Bound *Bound
	// Budget, when non-nil, is the serving layer's per-query execution
	// budget (serve.Budget): the search walk checks it at every
	// construction state, so an expired deadline aborts optimization
	// mid-search with a budget-exceeded error instead of returning a
	// truncated result. Call budgets do not apply here — optimization
	// issues no service calls — but the same Budget travels on to
	// execution, which charges them. mdqserve sets this from the
	// request context (serve.FromContext).
	Budget *serve.Budget
	// Span, when non-nil, is the trace span the search records under:
	// each Optimize call opens child spans for phase 1 (access-pattern
	// enumeration), phase 2 (the topology walk), phase 3 (fetch
	// assignment, cumulative across search workers), the cache lookup
	// and the winning plan's pricing. Nil — the default — records
	// nothing and costs one pointer check per phase.
	Span *trace.Span
}

// budgetErr reports the optimizer's budget violation, nil without a
// budget. Sticky: once the deadline passes, every later check in any
// search goroutine sees the same violation (see serve.Budget).
func (o *Optimizer) budgetErr() error {
	if o.Budget == nil {
		return nil
	}
	return o.Budget.Err()
}

// Shard names one slice of the phase-1 assignment space: the
// assignments at positions ≡ Index (mod Count) of the cogency-sorted
// permissible sequence. Sharding by congruence class keeps every
// shard anchored near the heuristically best assignments ("bound is
// better" sorts them first), so each worker finds a decent incumbent
// early instead of one worker getting all the good prefixes. A Count
// ≤ 1 disables sharding; the union of all Count shards is exactly the
// full space, each assignment in exactly one shard.
type Shard struct {
	// Index is the 0-based shard picked by this search.
	Index int
	// Count is the total number of shards.
	Count int
}

// enabled reports whether the shard actually restricts the space.
func (s Shard) enabled() bool { return s.Count > 1 }

// ErrNoPlanInShard reports that a shard-restricted search found no
// executable plan in its slice of the assignment space — an expected
// outcome when there are more workers than permissible assignments
// (or when a shard's assignments all fail to build), not a failure of
// the query: the coordinator treats it as an empty contribution and
// merges the other shards.
var ErrNoPlanInShard = errors.New("opt: no executable plan in shard")

// Scored is a complete plan with its evaluated cost.
type Scored struct {
	Plan     *plan.Plan
	Cost     float64
	Feasible bool
}

// Stats reports search effort.
type Stats struct {
	// CandidateAssignments is the size of the full phase-1 space
	// (∏ m_i of feasible patterns per atom).
	CandidateAssignments int
	// PermissibleAssignments survive the callability check.
	PermissibleAssignments int
	// StatesVisited counts phase-2 construction states expanded.
	StatesVisited int
	// StatesPruned counts states cut by the lower bound.
	StatesPruned int
	// Leaves counts complete topologies evaluated (phase 3 runs on
	// each).
	Leaves int
	// FetchVectors counts fetch vectors evaluated in phase 3.
	FetchVectors int
}

// add merges another worker's counters into s.
func (s *Stats) add(t Stats) {
	s.StatesVisited += t.StatesVisited
	s.StatesPruned += t.StatesPruned
	s.Leaves += t.Leaves
	s.FetchVectors += t.FetchVectors
}

// Result is the outcome of an optimization.
type Result struct {
	Best     *plan.Plan
	Cost     float64
	Feasible bool
	Stats    Stats
	// Alternatives holds further evaluated plans, best first (see
	// Optimizer.KeepAlternatives).
	Alternatives []Scored
	// Cached reports that the result was served from the plan cache
	// without running the search; Stats then describe the original
	// search.
	Cached bool
	// TemplateHit reports that the result was served from a
	// template-level cache entry: the plan skeleton came from a
	// previous search on different bindings and only the cost phase
	// re-ran (see Optimizer.OptimizeTemplate).
	TemplateHit bool
	// Revalidated reports that the serving template entry had a
	// stale statistics-epoch vector and was revalidated against the
	// fresh statistics before being served.
	Revalidated bool
	// BindingClass is the query's binding class under the template
	// cache's per-class baselines (set by OptimizeTemplate): a bucket
	// over where the bound constants sit in the profiled value
	// distributions. Empty under the uniform model or plain Optimize.
	BindingClass string
}

func (o *Optimizer) metric() cost.Metric {
	if o.Metric == nil {
		return cost.ExecTime{}
	}
	return o.Metric
}

func (o *Optimizer) maxStates() int {
	if o.MaxStates <= 0 {
		return 1 << 20
	}
	return o.MaxStates
}

// workerCount resolves the Parallelism knob.
func (o *Optimizer) workerCount() int {
	p := o.Parallelism
	if p < 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Bound is the incumbent bound shared by all search workers: the
// cost of the cheapest feasible plan found so far, +Inf before the
// first. Lowering it in any goroutine immediately tightens pruning in
// all others. Costs are nonnegative, so the float64 bit patterns
// order like the values and a CAS loop suffices.
//
// A Bound is also the unit of wire-level bound sharing: distributed
// optimization hands every worker the same logical bound by seeding
// each worker's local Bound and periodically min-merging them
// (Offer is idempotent and monotone, so merges commute and late
// deliveries are harmless). Sharing a bound never changes which plan
// an exact search returns — pruning cuts only states whose lower
// bound strictly exceeds the cost of some feasible plan, and every
// optimal-cost plan survives that cut — it only changes how much of
// the space is visited on the way.
type Bound struct {
	bits atomic.Uint64
}

// NewBound returns a bound at +Inf.
func NewBound() *Bound {
	b := &Bound{}
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

// Load returns the current bound.
func (b *Bound) Load() float64 { return math.Float64frombits(b.bits.Load()) }

// Offer lowers the bound to c if c improves it (monotone min-merge);
// offers that do not improve are ignored.
func (b *Bound) Offer(c float64) {
	for {
		cur := b.bits.Load()
		if math.Float64frombits(cur) <= c {
			return
		}
		if b.bits.CompareAndSwap(cur, math.Float64bits(c)) {
			return
		}
	}
}

// Optimize runs the full three-phase search on a resolved query and
// returns the cheapest executable plan. The search is exact up to
// the estimator: with Exhaustive set the same optimum is found by
// full enumeration, and the optimum is identical at every
// Parallelism level (both asserted by the test suite).
func (o *Optimizer) Optimize(q *cq.Query) (*Result, error) {
	for _, a := range q.Atoms {
		if a.Sig == nil {
			return nil, fmt.Errorf("opt: query %s is not resolved against a schema", q.Name)
		}
	}
	if err := o.budgetErr(); err != nil {
		return nil, err
	}
	// The exact-key cache is bypassed while an external bound is
	// shared (see the Bound field); searches still count.
	useExactCache := o.Cache != nil && o.Bound == nil
	var key string
	if useExactCache {
		csp := o.Span.Child("opt.cache.exact")
		key = o.cacheKey(q)
		if res, ok := o.Cache.Get(key); ok {
			res.Cached = true
			csp.Set("class", "exact")
			csp.End()
			return res, nil
		}
		csp.Set("class", "miss")
		csp.End()
	}

	p1 := o.Span.Child("opt.phase1.patterns")
	res := &Result{Cost: cost.Infinite}
	all, err := abind.EnumerateAll(q)
	if err != nil {
		return nil, err
	}
	res.Stats.CandidateAssignments = len(all)
	perm, err := abind.Enumerate(q)
	if err != nil {
		return nil, err
	}
	if len(perm) == 0 {
		return nil, fmt.Errorf("opt: query %s admits no permissible access-pattern sequence", q.Name)
	}
	// Candidate and permissible counts always describe the full
	// space, even under sharding: they characterize the query, and
	// a coordinator reads them off any one shard result.
	res.Stats.PermissibleAssignments = len(perm)
	// Phase 1 order: bound is better (§4.1.1) — most cogent first.
	abind.SortByCogency(perm)
	if o.Shard.enabled() {
		if o.Shard.Index < 0 || o.Shard.Index >= o.Shard.Count {
			return nil, fmt.Errorf("opt: shard index %d out of range for %d shards", o.Shard.Index, o.Shard.Count)
		}
		sharded := perm[:0:0]
		for i, asn := range perm {
			if i%o.Shard.Count == o.Shard.Index {
				sharded = append(sharded, asn)
			}
		}
		perm = sharded
		if len(perm) == 0 {
			return nil, fmt.Errorf("%w: query %s, shard %d/%d", ErrNoPlanInShard, q.Name, o.Shard.Index, o.Shard.Count)
		}
	}

	if p1 != nil {
		p1.Set("candidates", strconv.Itoa(res.Stats.CandidateAssignments))
		p1.Set("permissible", strconv.Itoa(res.Stats.PermissibleAssignments))
		p1.Set("searched", strconv.Itoa(len(perm)))
		p1.End()
	}

	if len(q.Atoms) > plan.MaxAtoms {
		return nil, fmt.Errorf("opt: query %s has %d atoms; the topology walk supports at most %d", q.Name, len(q.Atoms), plan.MaxAtoms)
	}
	// Count the search only once real work begins: an empty shard
	// returns before doing any, and must not inflate the Searches
	// counter distributed tests amortize against.
	if o.Cache != nil {
		o.Cache.noteSearch()
	}

	// Phases 2–3 per assignment are independent searches coupled only
	// through the shared incumbent; fan them out over the workers.
	// Each search accumulates into a private asnResult, merged in
	// assignment order afterwards, so the outcome does not depend on
	// goroutine arrival. With KeepAlternatives each assignment is one
	// sequential job (the deterministic-ordering contract); otherwise
	// the assignment walks themselves fan out state by state, so even
	// a single dominant assignment uses every worker.
	shared := o.Bound
	if shared == nil {
		shared = NewBound()
	}
	p2 := o.Span.Child("opt.phase2.topologies")
	results := make([]*asnResult, len(perm))
	if workers := o.workerCount(); workers <= 1 {
		for i, asn := range perm {
			results[i] = o.searchAssignment(q, asn, shared)
		}
	} else {
		ex := newExecutor(workers)
		for i, asn := range perm {
			i, asn := i, asn
			if o.KeepAlternatives != 0 {
				ex.submit(func() { results[i] = o.searchAssignment(q, asn, shared) })
			} else {
				results[i] = o.startParallelSearch(q, asn, shared, ex)
			}
		}
		ex.drain()
		ex.close()
	}
	p2.End()
	// A budget-truncated walk stopped expanding states the moment the
	// deadline passed; whatever incumbent it holds must not be served
	// as the optimum.
	if err := o.budgetErr(); err != nil {
		return nil, err
	}
	o.merge(res, results)
	if p2 != nil {
		p2.Set("states_visited", strconv.Itoa(res.Stats.StatesVisited))
		p2.Set("states_pruned", strconv.Itoa(res.Stats.StatesPruned))
		var fetchNanos int64
		for _, ar := range results {
			if ar != nil {
				fetchNanos += ar.fetchNanos
			}
		}
		// Phase 3 runs inside every leaf of the walk, so its span
		// reports CPU-cumulative time across search workers (it can
		// exceed the phase-2 wall clock) rather than a wall interval.
		p3 := o.Span.Child("opt.phase3.fetch")
		p3.AddDur(time.Duration(fetchNanos))
		p3.Set("cumulative", "true")
		p3.Set("leaves", strconv.Itoa(res.Stats.Leaves))
		p3.Set("fetch_vectors", strconv.Itoa(res.Stats.FetchVectors))
	}

	if res.Best == nil {
		if o.Shard.enabled() {
			return nil, fmt.Errorf("%w: query %s, shard %d/%d", ErrNoPlanInShard, q.Name, o.Shard.Index, o.Shard.Count)
		}
		return nil, fmt.Errorf("opt: no executable plan found for query %s", q.Name)
	}
	if sp := o.Span.Child("opt.plan"); sp != nil {
		// The winner's pricing summary: the per-node estimates live on
		// the plan annotations and reappear on the execution node spans.
		sp.Set("signature", res.Best.Signature())
		sp.Set("cost", strconv.FormatFloat(res.Cost, 'g', -1, 64))
		sp.Set("feasible", strconv.FormatBool(res.Feasible))
		sp.End()
	}
	if useExactCache {
		o.Cache.put(key, res, o.epochVector(q))
	}
	return res, nil
}

// asnResult accumulates one assignment's search: the local incumbent,
// the retained alternatives and the effort counters. The mutex makes
// it safe for the state-parallel walk, where many workers evaluate
// leaves of the same assignment; the sequential walk pays only an
// uncontended lock.
type asnResult struct {
	mu      sync.Mutex
	best    Scored
	bestSig string
	hasBest bool
	alts    []Scored
	stats   Stats
	// fetchNanos accumulates phase-3 assigner time, recorded only
	// under a traced search (Optimizer.Span) and reported on the
	// opt.phase3.fetch span.
	fetchNanos int64
}

// addStates records visited/pruned construction states.
func (ar *asnResult) addStates(visited, pruned int) {
	ar.mu.Lock()
	ar.stats.StatesVisited += visited
	ar.stats.StatesPruned += pruned
	ar.mu.Unlock()
}

// feasibleBound returns the cost of the local feasible incumbent, or
// +Inf before one exists.
func (ar *asnResult) feasibleBound() float64 {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	if ar.hasBest && ar.best.Feasible {
		return ar.best.Cost
	}
	return math.Inf(1)
}

// searchAssignment runs phases 2 and 3 for one access-pattern
// assignment. Pruning consults the local incumbent and — unless
// alternatives are being collected — the shared cross-assignment
// bound.
func (o *Optimizer) searchAssignment(q *cq.Query, asn abind.Assignment, shared *Bound) *asnResult {
	ar := &asnResult{}
	useShared := o.KeepAlternatives == 0

	// Heuristic seeds (§4.2.1) give the branch and bound a good
	// initial upper bound.
	if t := SerialHeuristic(q, asn, o.Estimator); t != nil {
		o.evalLeaf(q, asn, t, ar, shared, useShared)
	}
	if t := ParallelHeuristic(q, asn); t != nil {
		o.evalLeaf(q, asn, t, ar, shared, useShared)
	}

	visited := 0
	keep := func(s *topoState) bool {
		if o.budgetErr() != nil {
			return false
		}
		visited++
		ar.addStates(1, 0)
		if visited > o.maxStates() {
			return false
		}
		if o.shouldPrune(q, asn, s, ar, shared, useShared) {
			ar.addStates(0, 1)
			return false
		}
		return true
	}
	WalkTopologies(q, asn, keep, func(t *plan.Topology) {
		o.evalLeaf(q, asn, t, ar, shared, useShared)
	})
	return ar
}

// shouldPrune applies the branch-and-bound cut to a construction
// state: prune when the monotone lower bound of the partial plan
// already exceeds the best feasible incumbent visible to this search.
func (o *Optimizer) shouldPrune(q *cq.Query, asn abind.Assignment, s *topoState, ar *asnResult, shared *Bound, useShared bool) bool {
	if o.Exhaustive || s.placedCount() == 0 {
		return false
	}
	bound := ar.feasibleBound()
	if useShared {
		bound = math.Min(bound, shared.Load())
	}
	if math.IsInf(bound, 1) {
		return false
	}
	lb, ok := o.partialCost(q, asn, s)
	return ok && lb > bound
}

// walkCtx is the shared state of one assignment's state-parallel
// walk: the dedup set and visit budget live behind one mutex; leaf
// and bound bookkeeping go through the thread-safe asnResult.
type walkCtx struct {
	o      *Optimizer
	q      *cq.Query
	asn    abind.Assignment
	outs   []cq.VarSet
	full   uint64
	ar     *asnResult
	shared *Bound
	ex     *executor

	mu      sync.Mutex
	seen    map[string]bool
	visited int
}

// startParallelSearch launches phases 2–3 for one assignment on the
// executor and returns its accumulator immediately; the caller drains
// the executor before reading it. Used only without KeepAlternatives:
// state expansion order then depends on worker timing, which may
// shift the effort counters but — because pruning only ever discards
// strictly-worse completions — never the returned optimum.
func (o *Optimizer) startParallelSearch(q *cq.Query, asn abind.Assignment, shared *Bound, ex *executor) *asnResult {
	ar := &asnResult{}
	w := &walkCtx{
		o: o, q: q, asn: asn,
		outs:   outputsOf(q, asn),
		full:   uint64(1)<<len(q.Atoms) - 1,
		ar:     ar,
		shared: shared,
		ex:     ex,
		seen:   map[string]bool{},
	}
	ex.submit(func() {
		// Heuristic seeds first (§4.2.1): they publish the initial
		// upper bound the whole pool prunes against.
		if t := SerialHeuristic(q, asn, o.Estimator); t != nil {
			o.evalLeaf(q, asn, t, ar, shared, true)
		}
		if t := ParallelHeuristic(q, asn); t != nil {
			o.evalLeaf(q, asn, t, ar, shared, true)
		}
		w.expand(&topoState{placed: 0, topo: plan.NewTopology(len(q.Atoms))})
	})
	return ar
}

// expand processes construction states: dedup, budget, bound check,
// then either evaluate the complete topology or fan the successors
// out. The first successor continues inline (the worker walks one
// spine of the tree itself, keeping per-task overhead off the hot
// path); the siblings become fresh tasks for idle workers to steal.
func (w *walkCtx) expand(s *topoState) {
	for s != nil {
		if w.o.budgetErr() != nil {
			return
		}
		k := s.key()
		w.mu.Lock()
		if w.seen[k] {
			w.mu.Unlock()
			return
		}
		w.seen[k] = true
		w.visited++
		over := w.visited > w.o.maxStates()
		w.mu.Unlock()
		w.ar.addStates(1, 0)
		if over {
			return
		}
		if w.o.shouldPrune(w.q, w.asn, s, w.ar, w.shared, true) {
			w.ar.addStates(0, 1)
			return
		}
		if s.placed == w.full {
			w.o.evalLeaf(w.q, w.asn, s.topo.Clone(), w.ar, w.shared, true)
			return
		}
		var first *topoState
		cur := s
		extensions(w.q, w.asn, w.outs, cur, func(j int, ideal uint64) {
			child := apply(cur, j, ideal)
			if first == nil {
				first = child
			} else {
				w.ex.submit(func() { w.expand(child) })
			}
		})
		s = first
	}
}

// evalLeaf runs phase 3 on a complete topology and offers the scored
// plan to the assignment's local result.
func (o *Optimizer) evalLeaf(q *cq.Query, asn abind.Assignment, topo *plan.Topology, ar *asnResult, shared *Bound, useShared bool) {
	p, err := plan.Build(q, asn, topo, plan.Options{ChooseMethod: o.ChooseMethod})
	if err != nil {
		return
	}
	if err := p.Validate(); err != nil {
		return
	}
	assigner := &fetch.Assigner{
		Estimator: o.Estimator,
		Metric:    o.metric(),
		K:         o.K,
		Heuristic: o.FetchHeuristic,
	}
	var t0 time.Time
	if o.Span != nil {
		t0 = time.Now()
	}
	fr := assigner.Assign(p)
	if o.Span != nil {
		d := int64(time.Since(t0))
		ar.mu.Lock()
		ar.fetchNanos += d
		ar.mu.Unlock()
	}
	s := Scored{Plan: p, Cost: fr.Cost, Feasible: fr.Feasible || o.K <= 0}
	if useShared && s.Feasible {
		shared.Offer(s.Cost)
	}
	ar.offer(s, fr.Explored, o.KeepAlternatives)
}

// offer records one evaluated leaf: effort counters, the local
// incumbent, and the retained alternatives. Ties break on the
// canonical plan signature, which makes the chosen incumbent — and,
// through merge, the final result — a pure function of the set of
// evaluated plans rather than of evaluation order.
func (ar *asnResult) offer(s Scored, fetchVectors, keepAlt int) {
	sig := s.Plan.Signature()
	ar.mu.Lock()
	defer ar.mu.Unlock()
	ar.stats.Leaves++
	ar.stats.FetchVectors += fetchVectors
	better := false
	switch {
	case !ar.hasBest:
		better = true
	case s.Feasible != ar.best.Feasible:
		better = s.Feasible
	case s.Cost != ar.best.Cost:
		better = s.Cost < ar.best.Cost
	default:
		better = sig < ar.bestSig
	}
	if better {
		if ar.hasBest && keepAlt != 0 {
			ar.alts = append(ar.alts, ar.best)
		}
		ar.best, ar.bestSig, ar.hasBest = s, sig, true
	} else if keepAlt != 0 {
		ar.alts = append(ar.alts, s)
	}
	if keepAlt > 0 && len(ar.alts) > keepAlt {
		sortScored(ar.alts)
		ar.alts = ar.alts[:keepAlt]
	}
}

// merge folds the per-assignment results into the final one, in
// assignment order: effort counters are summed and the plans compete
// under the same deterministic order used locally.
func (o *Optimizer) merge(res *Result, results []*asnResult) {
	var candidates []Scored
	for _, ar := range results {
		if ar == nil {
			continue
		}
		res.Stats.add(ar.stats)
		if ar.hasBest {
			candidates = append(candidates, ar.best)
		}
		candidates = append(candidates, ar.alts...)
	}
	if len(candidates) == 0 {
		return
	}
	sortScored(candidates)
	res.Best, res.Cost, res.Feasible = candidates[0].Plan, candidates[0].Cost, candidates[0].Feasible
	if o.KeepAlternatives != 0 {
		res.Alternatives = candidates[1:]
		if o.KeepAlternatives > 0 && len(res.Alternatives) > o.KeepAlternatives {
			res.Alternatives = res.Alternatives[:o.KeepAlternatives]
		}
	}
}

// sortScored orders plans feasible-first, then by cost, then by
// canonical plan signature — a total order independent of insertion
// (and therefore goroutine) order.
func sortScored(s []Scored) {
	sigs := make([]string, len(s))
	for i := range s {
		sigs[i] = s[i].Plan.Signature()
	}
	sort.SliceStable(s, func(i, j int) bool {
		a, b := s[i], s[j]
		if a.Feasible != b.Feasible {
			return a.Feasible
		}
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		return sigs[i] < sigs[j]
	})
}

// partialCost computes the monotone lower bound for a construction
// state: the cost of the partially constructed plan over the placed
// atoms, with every fetch factor at its minimum of 1. Completing the
// plan can only append work after the placed nodes (never between
// them), so their invocation estimates are final and the partial
// cost bounds every completion (§2.4).
func (o *Optimizer) partialCost(q *cq.Query, asn abind.Assignment, s *topoState) (float64, bool) {
	placed := s.placedList()
	sub, subAsn, subTopo := subProblem(q, asn, s.topo, placed)
	p, err := plan.Build(sub, subAsn, subTopo, plan.Options{ChooseMethod: o.ChooseMethod})
	if err != nil {
		return 0, false
	}
	o.Estimator.Annotate(p)
	return o.metric().Cost(p), true
}

// subProblem restricts a query, assignment and topology to a subset
// of atoms (re-indexed), keeping the predicates whose variables are
// all covered by the subset.
func subProblem(q *cq.Query, asn abind.Assignment, topo *plan.Topology, placed []int) (*cq.Query, abind.Assignment, *plan.Topology) {
	sub := &cq.Query{Name: q.Name + "†"}
	subAsn := make(abind.Assignment, len(placed))
	avail := cq.VarSet{}
	for newIdx, i := range placed {
		a := q.Atoms[i]
		sub.Atoms = append(sub.Atoms, &cq.Atom{
			Service: a.Service,
			Terms:   a.Terms,
			Index:   newIdx,
			Sig:     a.Sig,
		})
		subAsn[newIdx] = asn[i]
		avail.AddAll(a.Vars())
	}
	for _, p := range q.Preds {
		if avail.ContainsAll(p.Vars()) {
			sub.Preds = append(sub.Preds, p)
		}
	}
	st := plan.NewTopology(len(placed))
	for a, i := range placed {
		for b, j := range placed {
			if topo.Less(i, j) {
				st.SetLess(a, b)
			}
		}
	}
	return sub, subAsn, st
}
