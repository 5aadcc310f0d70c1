// Package mdq is a query processor for multi-domain queries over web
// services, reproducing Braga, Ceri, Daniel and Martinenghi,
// "Optimization of Multi-Domain Queries on the Web" (VLDB 2008).
//
// A multi-domain query combines knowledge from several domain
// services — "database conferences in warm cities reachable with a
// cheap flight and a luxury hotel" — expressed as a conjunctive query
// in datalog-like syntax over registered services. The library
//
//   - models exact and search services with access patterns, erspi,
//     response times, chunked results and decay;
//   - compiles queries into DAG-shaped plans with pipe and parallel
//     joins (nested loop / merge scan, rank-order preserving);
//   - optimizes with a three-phase branch and bound (access patterns,
//     plan topology, fetch factors) under pluggable cost metrics
//     (execution time, request–response, sum, bottleneck,
//     time-to-screen); the search fans out over a worker pool sharing
//     one incumbent bound (System.Parallelism: 0 = one worker per
//     CPU, 1 = sequential) and can memoize whole results in an LRU
//     plan cache keyed by the canonical query signature
//     (System.PlanCache, see NewPlanCache) — results are
//     deterministic at every parallelism level;
//   - executes plans concurrently with three levels of logical
//     caching, or deterministically on a virtual-time simulator;
//   - prices constants by per-attribute value distributions
//     (equi-depth histograms + most-common-value lists, profiled from
//     table relations or learned online from traffic), so each
//     binding of a template is re-costed individually
//     (System.UniformSelectivity reverts to the paper's uniform
//     model);
//   - wraps services over HTTP in both directions;
//   - runs the same pipeline over a worker fleet: setting
//     System.Workers routes Optimize, OptimizeBound, Execute and Answer
//     through sharded search and worker-side fragment execution, with
//     identical plans and answers.
//
// The quickstart in examples/quickstart shows the whole lifecycle in
// about fifty lines.
package mdq

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"mdq/internal/abind"
	"mdq/internal/card"
	"mdq/internal/cost"
	"mdq/internal/cq"
	"mdq/internal/dist"
	"mdq/internal/exec"
	"mdq/internal/fetch"
	"mdq/internal/httpwrap"
	"mdq/internal/opt"
	"mdq/internal/plan"
	"mdq/internal/schema"
	"mdq/internal/serve"
	"mdq/internal/server"
	"mdq/internal/service"
	"mdq/internal/sim"
	"mdq/internal/tabsvc"
)

// Re-exported building blocks. The aliases expose the stable public
// surface of the internal packages.
type (
	// Value is a constant flowing through queries and results.
	Value = schema.Value
	// Stats carries profiled service characteristics.
	Stats = schema.Stats
	// Signature describes a service interface.
	Signature = schema.Signature
	// Attribute is one argument of a signature.
	Attribute = schema.Attribute
	// Domain is an abstract domain shared across services.
	Domain = schema.Domain
	// AccessPattern marks input/output argument positions.
	AccessPattern = schema.AccessPattern
	// Query is a parsed conjunctive query.
	Query = cq.Query
	// Plan is an executable query plan.
	Plan = plan.Plan
	// Topology is a partial order over query atoms.
	Topology = plan.Topology
	// Service is an invokable web service.
	Service = service.Service
	// Request is one service request.
	Request = service.Request
	// Response is one service response.
	Response = service.Response
	// Latency models simulated response times of table services.
	Latency = tabsvc.Latency
	// Metric is a plan cost metric.
	Metric = cost.Metric
	// CacheMode selects the logical caching level.
	CacheMode = card.CacheMode
	// ExecResult is the outcome of a concurrent execution.
	ExecResult = exec.Result
	// SimResult is the outcome of a simulated execution.
	SimResult = sim.Result
	// OptimizeResult carries the best plan and search statistics.
	OptimizeResult = opt.Result
	// Distribution is a per-attribute value distribution (equi-depth
	// histogram + most-common-value list + distinct count) consulted
	// by the value-sensitive selectivity estimator.
	Distribution = schema.Distribution
	// MCV is one most-common-value entry of a Distribution.
	MCV = schema.MCV
	// HistogramBucket is one equi-depth bucket of a Distribution.
	HistogramBucket = schema.Bucket
)

// Value constructors and pattern helpers.
var (
	// String builds a string value.
	String = schema.S
	// Number builds a numeric value.
	Number = schema.N
	// Date builds a date value.
	Date = schema.D
	// Pattern parses an access pattern such as "ioo".
	Pattern = schema.MustPattern
)

// Caching levels (§5.1 of the paper).
const (
	NoCache      = card.NoCache
	OneCallCache = card.OneCall
	OptimalCache = card.Optimal
)

// Value kinds for Domain definitions.
const (
	StringKind = schema.StringValue
	NumberKind = schema.NumberValue
	DateKind   = schema.DateValue
)

// Service kinds (§2.1: exact services return unranked tuples, search
// services return tuples in ranking order).
const (
	ExactService  = schema.Exact
	SearchService = schema.Search
)

// Metrics (§2.3 of the paper).
var (
	ExecTimeMetric        = cost.Metric(cost.ExecTime{})
	RequestResponseMetric = cost.Metric(cost.RequestResponse{})
	SumCostMetric         = cost.Metric(cost.SumCost{})
	BottleneckMetric      = cost.Metric(cost.Bottleneck{})
	TimeToScreenMetric    = cost.Metric(cost.TimeToScreen{})
)

// MetricByName resolves "etm", "rr", "sum", "bottleneck", "tts" and
// their long forms.
var MetricByName = cost.ByName

// System bundles a service registry with optimizer and executor
// defaults; it is the package's main entry point.
type System struct {
	registry *service.Registry
	// K is the number of answers optimized and executed for
	// (default 10); 0 means "all answers".
	K int
	// Metric is the optimization objective (default execution time).
	Metric Metric
	// Cache is the logical caching level (default one-call, the
	// paper's recommended trade-off).
	Cache CacheMode
	// Parallelism is the number of optimizer search workers: 0 (the
	// default) uses one worker per CPU, 1 forces the sequential
	// search, n > 1 uses n workers. The chosen plan is identical at
	// every level.
	Parallelism int
	// PlanCache, when non-nil, memoizes optimization results across
	// queries (see NewPlanCache and NewPlanCacheWith). Entries are
	// keyed by the canonical query signature, the optimizer settings
	// and the registry version, so registering a service or changing
	// a join method invalidates them automatically; in-place
	// statistics refreshes (observed services) invalidate or
	// revalidate entries through per-service stats epochs. Bound
	// template queries optimized via OptimizeBound additionally share
	// one template-level entry per template, so one search serves
	// every binding.
	PlanCache *PlanCache
	// Feedback, when non-nil, closes the adaptive serving loop: after
	// every Execute the observed per-service traffic is folded back
	// into the profiles of observed services (see ObserveAll) under
	// the policy's thresholds, bumping stats epochs so cached plans
	// revalidate against real traffic instead of stale registration
	// estimates.
	Feedback *FeedbackPolicy
	// RevalidateRatio bounds the cost divergence tolerated when a
	// cached template plan is re-costed for new bindings or fresh
	// statistics; beyond it a full search re-runs. 0 means the
	// optimizer default (4×).
	RevalidateRatio float64
	// UniformSelectivity disables the value-sensitive selectivity
	// layer: profiled per-attribute distributions are ignored and
	// every constant is priced under the paper's uniform model
	// (every value equally likely). Useful for A/B-ing the effect of
	// histograms; cache keys distinguish the two modes.
	UniformSelectivity bool
	// Workers, when non-empty, route Optimize, OptimizeBound, Execute
	// and Answer through a worker fleet (see NewDistWorker,
	// DistLocalTransport and DistHTTPTransport): searches shard across
	// the workers and plans execute as worker-side fragments, so this
	// process invokes no service itself. In-process workers share this
	// system's registry, so statistics-epoch bumps reach their plan
	// caches directly; a fleet of remote mdqworker processes is served
	// by mdqserve -workers, which also runs the gossip loop.
	Workers []DistTransport
	// Budget, when non-nil, bounds the next query end to end, in
	// single-process and fleet mode alike: the search checks its
	// deadline, and Execute carries it into the runner or the fleet
	// coordinator, where every logical service call is charged against
	// the call cap. A tripped budget aborts with an
	// error matching ErrBudgetExceeded. Budgets are single-query:
	// build a fresh one per query (NewBudget) rather than sharing the
	// System field across concurrent callers.
	Budget *Budget
}

// NewSystem creates an empty system with the paper's default
// settings: execution-time metric, one-call cache, k=10.
func NewSystem() *System {
	return &System{
		registry: service.NewRegistry(),
		K:        10,
		Metric:   cost.ExecTime{},
		Cache:    card.OneCall,
	}
}

// Registry exposes the underlying registry for advanced use.
func (s *System) Registry() *service.Registry { return s.registry }

// Register adds a service implementation (§5 service registration).
func (s *System) Register(svc Service) error { return s.registry.Register(svc) }

// RegisterTable registers an in-memory table service: rows must be
// full-width tuples in ranking order for search services.
func (s *System) RegisterTable(sig *Signature, rows [][]Value, lat Latency) error {
	t, err := tabsvc.New(sig, rows, lat)
	if err != nil {
		return err
	}
	return s.registry.Register(t)
}

// SetJoinMethod fixes the parallel join strategy for a service pair
// (registration-time knowledge, §3.3): "NL" or "MS".
func (s *System) SetJoinMethod(a, b, method string) error {
	switch method {
	case "NL", "nl":
		s.registry.SetJoinMethod(a, b, plan.NestedLoop)
	case "MS", "ms":
		s.registry.SetJoinMethod(a, b, plan.MergeScan)
	default:
		return fmt.Errorf("mdq: unknown join method %q (want NL or MS)", method)
	}
	return nil
}

// Parse reads a conjunctive query in datalog-like syntax and
// resolves it against the registered services.
func (s *System) Parse(query string) (*Query, error) {
	q, err := cq.Parse(query)
	if err != nil {
		return nil, err
	}
	sch, err := s.registry.Schema()
	if err != nil {
		return nil, err
	}
	if err := q.Resolve(sch); err != nil {
		return nil, err
	}
	return q, nil
}

// engine assembles the query engine for this system's current
// settings and wires the plan cache into the registry's stats-epoch
// feed. With Workers set, the engine routes every call through the
// fleet.
func (s *System) engine() *server.Engine {
	p := s.Parallelism
	if p == 0 {
		p = opt.AutoParallelism
	}
	if s.PlanCache != nil {
		// Idempotent: re-subscribing the same cache replaces its
		// callback, so stats refreshes invalidate exactly the entries
		// touching the refreshed service.
		s.registry.SubscribeEpochs(s.PlanCache, s.PlanCache.InvalidateService)
	}
	return &server.Engine{
		Registry:        s.registry,
		Cache:           s.PlanCache,
		Parallelism:     p,
		RevalidateRatio: s.RevalidateRatio,
		Feedback:        s.Feedback,
		Workers:         s.Workers,
	}
}

// knobs are this system's per-query settings.
func (s *System) knobs() server.Knobs {
	return server.Knobs{
		Metric:    s.Metric,
		Estimator: card.Config{Mode: s.Cache, NoValueStats: s.UniformSelectivity},
		K:         s.K,
	}
}

// budgeted attaches System.Budget to a context that does not already
// carry a budget.
func (s *System) budgeted(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.Budget != nil && serve.FromContext(ctx) == nil {
		return s.Budget.Context(ctx)
	}
	return ctx, func() {}
}

// Optimize runs the three-phase branch and bound and returns the
// cheapest executable plan together with search statistics. The
// search parallelizes over System.Parallelism workers and consults
// System.PlanCache when one is attached. With System.Workers set the
// search shards across them instead — each worker searches one
// congruence-class slice of the assignment space against its own
// registry and plan cache, with the incumbent bound min-merged between
// them while they run — and the merged plan is identical, provided the
// workers' service statistics agree with this system's.
func (s *System) Optimize(q *Query) (*OptimizeResult, error) {
	ctx, cancel := s.budgeted(context.Background())
	defer cancel()
	return s.engine().Optimize(ctx, q, s.knobs())
}

// OptimizeBound binds a template and optimizes the bound query
// through the template level of the plan cache: all bindings of one
// template share a single branch-and-bound search, and each binding
// only re-runs the cheap cost phase (selectivity and fetch-vector
// re-estimation) on the cached plan skeleton. Without a PlanCache it
// degrades to Bind + Optimize; with System.Workers the workers'
// template caches serve instead. The bound, resolved query is returned
// alongside the result so the caller can execute the plan.
func (s *System) OptimizeBound(tpl *Template, values map[string]Value) (*Query, *OptimizeResult, error) {
	q, err := tpl.Bind(values)
	if err != nil {
		return nil, nil, err
	}
	if err := s.ResolveQuery(q); err != nil {
		return nil, nil, err
	}
	ctx, cancel := s.budgeted(context.Background())
	defer cancel()
	res, err := s.engine().OptimizeTemplate(ctx, q, s.knobs())
	if err != nil {
		return nil, nil, err
	}
	return q, res, nil
}

// AnswerBound optimizes a template binding through the template
// cache and executes the plan: the serving-loop analogue of Answer.
func (s *System) AnswerBound(ctx context.Context, tpl *Template, values map[string]Value) (*ExecResult, *OptimizeResult, error) {
	_, ores, err := s.OptimizeBound(tpl, values)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.Execute(ctx, ores.Best)
	if err != nil {
		return nil, nil, err
	}
	return res, ores, nil
}

// Execute runs a plan against the registered services with the
// system's caching level, stopping after K answers (0 drains). With
// System.Feedback set, observed services absorb the run's traffic
// into their profiles afterwards. With System.Workers set the plan
// runs across them as fragments instead: each linear chain ships —
// with the tuples flowing into it — to a worker whose registry hosts
// its services, streams its tail tuples back, and this system joins
// the streams, projects the head and truncates at K; the result is
// tuple-identical, and workers fold the traffic into their own
// profiles under their own feedback policy.
func (s *System) Execute(ctx context.Context, p *Plan) (*ExecResult, error) {
	ctx, cancel := s.budgeted(ctx)
	defer cancel()
	return s.engine().Execute(ctx, p, s.knobs())
}

// Answer optimizes and executes in one step: the paper's end-to-end
// pipeline from datalog text to ranked answers.
func (s *System) Answer(ctx context.Context, query string) (*ExecResult, *OptimizeResult, error) {
	q, err := s.Parse(query)
	if err != nil {
		return nil, nil, err
	}
	ores, err := s.Optimize(q)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.Execute(ctx, ores.Best)
	if err != nil {
		return nil, nil, err
	}
	return res, ores, nil
}

// PlanCache is an LRU cache of optimization results; attach one to
// System.PlanCache so repeated queries skip the branch-and-bound
// search entirely. Safe for concurrent use.
type PlanCache = opt.PlanCache

// PlanCacheStats reports plan-cache hit/miss/revalidation/eviction
// counters and occupancy.
type PlanCacheStats = opt.CacheStats

// PlanCachePolicy configures capacity, byte-budget and TTL eviction
// for long-running servers.
type PlanCachePolicy = opt.Policy

// PlanCacheEntry describes one cached entry (key kind, epochs,
// staleness, hit counts) for introspection.
type PlanCacheEntry = opt.EntryInfo

// FeedbackPolicy gates the runtime feedback loop from execution
// traffic back into service profiles (see System.Feedback).
type FeedbackPolicy = service.FeedbackPolicy

// Observed is a service wrapper collecting live-traffic statistics
// (see System.ObserveAll).
type Observed = service.Observed

// Budget caps one query's wall-clock time and logical service calls;
// attach it to System.Budget (and, for execution, it rides the
// context automatically). Once either limit trips, every later check
// and charge fails with the same error. Safe for concurrent use
// within the one query it budgets.
type Budget = serve.Budget

// BudgetError reports which budget dimension tripped ("deadline" or
// "calls") and at what limit; it unwraps to ErrBudgetExceeded.
type BudgetError = serve.BudgetError

// ErrBudgetExceeded is the sentinel every budget violation matches
// via errors.Is, whether it tripped in the optimizer's search, the
// executor's service calls, or on a remote worker.
var ErrBudgetExceeded = serve.ErrBudgetExceeded

// NewBudget builds a per-query budget: d caps wall-clock time
// (0 = no deadline), maxCalls caps logical service calls
// (0 = uncapped; calls are still counted for accounting).
func NewBudget(d time.Duration, maxCalls int64) *Budget {
	return serve.NewBudget(d, maxCalls)
}

// NewPlanCache builds a plan cache holding up to capacity results
// (<= 0 means 128).
func NewPlanCache(capacity int) *PlanCache { return opt.NewPlanCache(capacity) }

// NewPlanCacheWith builds a plan cache with explicit eviction
// policies (entry capacity, byte budget, TTL).
func NewPlanCacheWith(p PlanCachePolicy) *PlanCache { return opt.NewPlanCacheWith(p) }

// ObserveAll wraps every registered service in a statistics observer
// wired to the registry's stats epochs, returning how many were
// wrapped. Combined with System.Feedback this turns execution
// traffic into profile refreshes and cache revalidation.
func (s *System) ObserveAll() int { return s.registry.ObserveAll() }

// RefreshStats folds all collected observations into the service
// profiles immediately (ignoring the feedback policy thresholds) and
// returns how many profiles changed — the manual re-profiling hook.
func (s *System) RefreshStats() int { return s.registry.RefreshObserved() }

// Epochs snapshots the statistics epoch of every service that has
// been refreshed at least once.
func (s *System) Epochs() map[string]uint64 { return s.registry.Epochs() }

// ServiceEpoch returns the statistics epoch of one service (0 until
// its first refresh).
func (s *System) ServiceEpoch(name string) uint64 { return s.registry.Epoch(name) }

// ServiceStats returns the current profiled statistics of a
// registered service.
func (s *System) ServiceStats(name string) (Stats, bool) {
	svc, ok := s.registry.Lookup(name)
	if !ok {
		return Stats{}, false
	}
	return svc.Signature().Statistics(), true
}

// ProfileValues computes exact per-attribute value distributions for
// a registered table service from its backing relation and installs
// them on the signature, so subsequent optimizations price constants
// by their actual frequency instead of uniformly. maxMCVs and
// maxBuckets bound the distribution size (≤ 0 means 8 each); the
// returned count is the number of attributes profiled. Non-table
// services learn distributions online instead, through ObserveAll +
// Feedback.
//
// The service's statistics epoch is bumped afterwards, so attached
// plan caches invalidate or revalidate entries priced under the old
// distributions — the same path an Observed refresh takes. Like
// every in-place statistics write, the install itself is not
// synchronized with concurrently running optimizations (see the
// copy-on-write note in ROADMAP); prefer profiling at registration
// time.
func (s *System) ProfileValues(name string, maxMCVs, maxBuckets int) (int, error) {
	svc, ok := s.registry.Lookup(name)
	if !ok {
		return 0, fmt.Errorf("mdq: service %s not registered", name)
	}
	t, ok := svc.(*tabsvc.Table)
	if !ok {
		return 0, fmt.Errorf("mdq: service %s is not a table service (use ObserveAll + Feedback to learn value distributions online)", name)
	}
	n := t.ProfileValues(maxMCVs, maxBuckets)
	s.registry.BumpEpoch(name)
	return n, nil
}

// ServiceDistributions returns the per-attribute value distributions
// currently profiled for a service (nil entries for attributes
// without statistics), or ok=false for unknown services.
func (s *System) ServiceDistributions(name string) ([]*Distribution, bool) {
	svc, ok := s.registry.Lookup(name)
	if !ok {
		return nil, false
	}
	return svc.Signature().Statistics().Dists, true
}

// EstimateUniformCost is EstimateCost with the value-sensitive
// selectivity layer disabled: the cost the plan would be assigned
// under the paper's uniform model. Comparing it with EstimateCost
// shows how much the profiled histograms move a binding's estimate.
func (s *System) EstimateUniformCost(p *Plan) (planCost, tout float64) {
	tout = card.Config{Mode: s.Cache, NoValueStats: true}.Annotate(p)
	return s.Metric.Cost(p), tout
}

// Cache is a logical result cache (§5.1) that can be shared across
// executions to continue a query for more answers.
type Cache = exec.Cache

// NewCache builds a logical cache of the given level.
func NewCache(mode CacheMode) Cache { return exec.NewCache(mode) }

// ExecuteShared runs a plan with an externally owned cache, so
// subsequent continuations can reuse every call already made
// (single-process execution only: a fleet's workers own their caches).
func (s *System) ExecuteShared(ctx context.Context, p *Plan, cache Cache) (*ExecResult, error) {
	kn := s.knobs()
	kn.SharedCache = cache
	return s.engine().Execute(ctx, p, kn)
}

// Continue produces more answers for a previously executed plan
// (§2.2: "a user can either be satisfied with the first k answers,
// or ask for more results of the same query"): each chunked node's
// fetch factor grows by extraFetches and the plan re-runs against
// the same cache, so only the new fetches reach the services.
func (s *System) Continue(ctx context.Context, p *Plan, cache Cache, extraFetches int) (*ExecResult, error) {
	if extraFetches < 1 {
		extraFetches = 1
	}
	for _, n := range p.ChunkedNodes() {
		n.Fetches += extraFetches
	}
	return s.ExecuteShared(ctx, p, cache)
}

// Simulate executes the plan on the deterministic virtual-time
// simulator and reports call counts and the makespan.
func (s *System) Simulate(ctx context.Context, p *Plan) (*SimResult, error) {
	m := &sim.Simulator{Registry: s.registry, Cache: s.Cache, K: s.K}
	return m.Run(ctx, p)
}

// Profile samples a registered table service and returns estimated
// statistics (§5: registration gives estimates by sampling).
func (s *System) Profile(ctx context.Context, name string, samples int) (Stats, error) {
	svc, ok := s.registry.Lookup(name)
	if !ok {
		return Stats{}, fmt.Errorf("mdq: service %s not registered", name)
	}
	t, ok := svc.(*tabsvc.Table)
	if !ok {
		return Stats{}, fmt.Errorf("mdq: service %s is not profilable (no input sampler)", name)
	}
	p := &service.Profiler{Samples: samples, Seed: 1}
	return p.Profile(ctx, t, 0, t.Sampler())
}

// HTTPHandler exposes every registered service over HTTP (JSON
// protocol with chunk paging); mount it on any server. With
// sleepScale > 0 the server really sleeps the scaled simulated
// latency per request.
func (s *System) HTTPHandler(sleepScale float64) http.Handler {
	mux, _ := httpwrap.ServeRegistry(s.registry, httpwrap.HandlerOptions{SleepScale: sleepScale})
	return mux
}

// ConnectHTTP registers every service served by a remote mdq
// endpoint (see HTTPHandler) into this system.
func ConnectHTTP(ctx context.Context, baseURL string, hc *http.Client) (*System, error) {
	reg, err := httpwrap.DialRegistry(ctx, baseURL, hc)
	if err != nil {
		return nil, err
	}
	return &System{registry: reg, K: 10, Metric: cost.ExecTime{}, Cache: card.OneCall}, nil
}

// BuildPlan constructs a plan for an explicit topology and pattern
// assignment — the manual route used to reproduce the paper's named
// plans (S, P, O).
func (s *System) BuildPlan(q *Query, asn []AccessPattern, topo *Topology) (*Plan, error) {
	p, err := plan.Build(q, abind.Assignment(asn), topo, plan.Options{ChooseMethod: s.registry.MethodChooser()})
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// AssignFetches runs phase 3 alone on a plan: fetch factors for the
// system's K under its metric.
func (s *System) AssignFetches(p *Plan) (feasible bool, vector []int, planCost float64) {
	fa := &fetch.Assigner{Estimator: card.Config{Mode: s.Cache, NoValueStats: s.UniformSelectivity}, Metric: s.Metric, K: s.K}
	fr := fa.Assign(p)
	return fr.Feasible, fr.Vector, fr.Cost
}

// EstimateCost annotates the plan with the system's estimator and
// returns its cost under the system metric and the expected result
// size.
func (s *System) EstimateCost(p *Plan) (planCost, tout float64) {
	tout = card.Config{Mode: s.Cache, NoValueStats: s.UniformSelectivity}.Annotate(p)
	return s.Metric.Cost(p), tout
}

// Template is a parametrized query: $name placeholders bound per
// execution while the optimized plan structure is shared (§2.2).
type Template = cq.Template

// ParseTemplate parses a query with $param placeholders; bind it
// with Template.Bind and resolve the result with ResolveQuery.
func ParseTemplate(text string) (*Template, error) { return cq.ParseTemplate(text) }

// ResolveQuery resolves a query built outside Parse (e.g. from a
// template binding) against the registered services.
func (s *System) ResolveQuery(q *Query) error {
	sch, err := s.registry.Schema()
	if err != nil {
		return err
	}
	return q.Resolve(sch)
}

// ExpandQuery applies the §7 off-query expansion: when the query
// admits no permissible access-pattern sequence, services from the
// registry are added as extra atoms to seed the unbound inputs. The
// expanded query computes a subset of the original answers. The
// returned count is the number of atoms added (0 when the query was
// already executable).
func (s *System) ExpandQuery(q *Query, maxExtra int) (*Query, int, error) {
	sch, err := s.registry.Schema()
	if err != nil {
		return nil, 0, err
	}
	return opt.Expand(q, sch, maxExtra)
}

// Distributed optimization & execution surface: with System.Workers
// set, this system coordinates — it shards the branch-and-bound across
// the workers, shares the incumbent bound over the wire, and executes
// winning plans as worker-side fragments with tuple streaming. See
// internal/dist for the protocol.
type (
	// DistWorker executes shard searches against a local registry and
	// plan cache — the server side of distributed optimization.
	DistWorker = dist.Worker
	// DistTransport is a coordinator's handle on one worker.
	DistTransport = dist.Transport
	// DistLocalTransport wires an in-process worker (tests, single
	// binary deployments).
	DistLocalTransport = dist.LocalTransport
	// DistHTTPTransport speaks the worker protocol to a remote
	// mdqworker over HTTP.
	DistHTTPTransport = dist.HTTPTransport
	// DistMembership is the health-checked view over a worker set:
	// probes plus RPC feedback walk each worker through
	// up/suspect/down, and dispatch skips down workers.
	DistMembership = dist.Membership
	// DistRetryPolicy bounds how transiently failed dispatches are
	// re-attempted (backoff, failover to another worker).
	DistRetryPolicy = dist.RetryPolicy
	// DistFaultTransport wraps any transport with deterministic fault
	// injection — the sanctioned seam for testing failover paths.
	DistFaultTransport = dist.FaultTransport
	// EpochBump is one gossiped (service, epoch) invalidation.
	EpochBump = service.EpochBump
	// PlanCacheWireEntry is a serialized template cache entry — the
	// unit of cache persistence (PlanCache.Save/Load) and worker
	// warmup.
	PlanCacheWireEntry = opt.TemplateWireEntry
)

// NewDistWorker builds an in-process optimization worker over this
// system's registry with a fresh plan cache of the given capacity
// (<= 0 means 128) — combine with DistLocalTransport to form an
// in-process cluster, e.g. for tests or to isolate cache pressure per
// shard inside one binary.
func (s *System) NewDistWorker(cacheCapacity int) *DistWorker {
	return dist.NewWorker(s.registry, opt.NewPlanCache(cacheCapacity))
}

// ChainTopology builds a serial topology over atom indexes.
func ChainTopology(order ...int) *Topology { return plan.Chain(order) }

// LayersTopology builds a layered topology (atoms inside a layer run
// in parallel).
func LayersTopology(layers ...[]int) *Topology { return plan.Layers(layers) }

// Milliseconds is a convenience for building latencies.
func Milliseconds(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
