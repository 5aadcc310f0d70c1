// Package server is the query engine and the HTTP serving surface
// built on it: mdqserve mounts the handler New returns, the mdq.System
// facade and mdqrun call the Engine directly, and tests drive both
// under httptest without spawning a process.
//
// The paper has one pipeline — conjunctive query → three-phase branch
// and bound → plan execution under a logical cache — and where a
// service call physically runs is a deployment fact. Engine's three
// methods are the only place in the module that asks whether a worker
// fleet is configured. No binary's main package and no mdq.System
// method assembles an opt.Optimizer, exec.Runner or dist.Coordinator
// of its own; they go through an Engine. Below it, dist.Worker and
// dist.Coordinator build the optimizers they run, and examples/ and
// internal/experiments build theirs to reproduce the paper's figures.
package server

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"mdq/internal/card"
	"mdq/internal/cost"
	"mdq/internal/cq"
	"mdq/internal/dist"
	"mdq/internal/exec"
	"mdq/internal/opt"
	"mdq/internal/plan"
	"mdq/internal/serve"
	"mdq/internal/service"
	"mdq/internal/trace"
)

// Engine holds what outlives a request. It is safe for concurrent
// requests: optimizers, runners and coordinators are built per call,
// and the caches, registry and membership view synchronize themselves.
type Engine struct {
	// Registry is the service view queries are resolved, priced and —
	// without a fleet — executed against.
	Registry *service.Registry
	// Cache, when non-nil, is the plan cache single-process
	// optimizations go through; the caller subscribes it to the
	// registry's epoch feed. A fleet serves template hits from the
	// workers' caches, never from this one, but keeps it current: every
	// template entry a sharded search ships to the workers is imported
	// here too, so GET /cache and -cache-file show and persist what the
	// fleet learned, and start-up warms the workers from it.
	Cache *opt.PlanCache
	// Parallelism, Feedback and ResultCache apply to single-process
	// searches and executions (see opt.Optimizer and exec.Runner); a
	// fleet's workers carry their own.
	Parallelism int
	Feedback    *service.FeedbackPolicy
	ResultCache exec.Cache
	// RevalidateRatio bounds template re-cost divergence and BufferSize
	// the executor's per-arc capacity (0 = the defaults), locally and
	// over a fleet alike.
	RevalidateRatio float64
	BufferSize      int

	// Workers, when non-empty, route all three methods through the
	// fleet: searches shard across these transports and plans execute
	// as worker-side fragments.
	Workers []dist.Transport
	// Membership, Retry, OnRetry and OnProbe are passed to every
	// per-request coordinator (see dist.Coordinator).
	Membership *dist.Membership
	Retry      dist.RetryPolicy
	OnRetry    func(op, worker string)
	OnProbe    func(outcome string)

	// hosts caches the fleet's service hosting so per-request
	// coordinators skip one round-trip per worker per execution; nil
	// falls back to per-execution discovery. The membership hook
	// replaces it while queries read it.
	hostsMu sync.RWMutex
	hosts   []map[string]bool
}

// Knobs are the per-request settings of the three Engine methods.
type Knobs struct {
	// Metric is the optimization objective (nil means execution time).
	Metric cost.Metric
	// Estimator configures the cardinality estimator; its Mode is also
	// the logical caching level executions run under. A fleet honours
	// the Mode only.
	Estimator card.Config
	// K is the number of answers optimized and executed for (0 drains).
	K int
	// SharedCache, when set, replaces the per-run logical cache of a
	// single-process execution (continued executions, §2.2).
	SharedCache exec.Cache
	// Alternatives is how many runner-up plans a single-process search
	// keeps on the result (opt.Optimizer.KeepAlternatives); a fleet
	// keeps none.
	Alternatives int
}

// coordinator assembles a per-request distributed coordinator.
func (e *Engine) coordinator(kn Knobs) *dist.Coordinator {
	e.hostsMu.RLock()
	hosts := e.hosts
	e.hostsMu.RUnlock()
	return &dist.Coordinator{
		Registry:        e.Registry,
		Workers:         e.Workers,
		Metric:          kn.Metric,
		Mode:            kn.Estimator.Mode,
		K:               kn.K,
		RevalidateRatio: e.RevalidateRatio,
		Hosts:           hosts,
		BufferSize:      e.BufferSize,
		Membership:      e.Membership,
		Retry:           e.Retry,
		OnRetry:         e.OnRetry,
		Cache:           e.Cache,
		OnProbe:         e.OnProbe,
	}
}

// Optimize runs the three-phase branch and bound for a resolved query
// and returns the cheapest plan. The context carries the request budget
// (the search checks its deadline) and the parent trace span.
func (e *Engine) Optimize(ctx context.Context, q *cq.Query, kn Knobs) (*opt.Result, error) {
	return e.optimize(ctx, q, kn, false)
}

// OptimizeTemplate is Optimize through the template level of the plan
// cache: all bindings of one template share a search and each binding
// only re-runs the cost phase on the cached skeleton.
func (e *Engine) OptimizeTemplate(ctx context.Context, q *cq.Query, kn Knobs) (*opt.Result, error) {
	return e.optimize(ctx, q, kn, true)
}

// optimize is Optimize and OptimizeTemplate: one optimizer or one
// coordinator per request.
func (e *Engine) optimize(ctx context.Context, q *cq.Query, kn Knobs, template bool) (*opt.Result, error) {
	sp := trace.From(ctx).Child("optimize")
	defer sp.End()
	if len(e.Workers) > 0 {
		c := e.coordinator(kn)
		ctx = trace.With(ctx, sp)
		if template {
			return c.OptimizeTemplate(ctx, q)
		}
		return c.Optimize(ctx, q)
	}
	o := &opt.Optimizer{
		Metric:           kn.Metric,
		Estimator:        kn.Estimator,
		K:                kn.K,
		ChooseMethod:     e.Registry.MethodChooser(),
		Parallelism:      e.Parallelism,
		Cache:            e.Cache,
		CacheSalt:        e.Registry.CacheSalt(),
		Epochs:           e.Registry,
		RevalidateRatio:  e.RevalidateRatio,
		Budget:           serve.FromContext(ctx),
		Span:             sp,
		KeepAlternatives: kn.Alternatives,
	}
	if template {
		return o.OptimizeTemplate(q)
	}
	return o.Optimize(q)
}

// Execute runs a plan and returns its answers, stopping after K. With
// a fleet the plan is cut into fragments that run on the workers
// hosting their services, tuples stream back and the joins happen
// here; worker-side feedback bumps return via the reverse gossip path.
// The context's budget is charged for every logical call either way.
func (e *Engine) Execute(ctx context.Context, p *plan.Plan, kn Knobs) (*exec.Result, error) {
	sp := trace.From(ctx).Child("execute")
	defer sp.End()
	ctx = trace.With(ctx, sp)
	if len(e.Workers) > 0 {
		return e.coordinator(kn).ExecutePlan(ctx, p)
	}
	r := &exec.Runner{
		Registry:    e.Registry,
		Cache:       kn.Estimator.Mode,
		K:           kn.K,
		Feedback:    e.Feedback,
		BufferSize:  e.BufferSize,
		ResultCache: e.ResultCache,
		SharedCache: kn.SharedCache,
	}
	return r.Run(ctx, p)
}

// startFleet starts what a long-lived fleet needs beyond per-request
// coordinators and returns its stop function: the membership probe
// loop, the gossip loop fanning epoch bumps — local ones and those
// absorbed back from executing workers — out to every worker cache,
// worker warm-up from the local template cache, the hosting snapshot.
func (e *Engine) startFleet(healthInterval time.Duration) (stop func()) {
	stopHealth := func() {}
	if e.Membership != nil && healthInterval > 0 {
		stopHealth = e.Membership.HealthLoop(healthInterval)
	}
	fleet := e.coordinator(Knobs{})
	stopGossip := fleet.GossipLoop(func(err error) { log.Printf("gossip: %v", err) })
	if e.Cache != nil {
		if n, err := fleet.WarmWorkers(context.Background(), e.Cache.ExportTemplates()); err != nil {
			log.Printf("warming workers: %v", err)
		} else if n > 0 {
			fmt.Printf("warmed workers with %d template entries\n", n)
		}
	}
	// The worker list is fixed for the engine's lifetime: discover each
	// worker's hosted services once. A worker that is not up yet just
	// means per-execution fallback until it rejoins (see refreshHosts).
	e.refreshHosts("discovering worker hosting (will retry per execution)")
	return func() {
		stopGossip()
		stopHealth()
	}
}

// refreshHosts re-discovers the hosting snapshot. A worker that was
// down at discovery carries an empty set and would otherwise never
// host a fragment again, so a rejoining worker triggers this too.
func (e *Engine) refreshHosts(what string) {
	hosts, err := e.coordinator(Knobs{}).DiscoverHosts(context.Background())
	if err != nil {
		log.Printf("%s: %v", what, err)
		return
	}
	e.hostsMu.Lock()
	e.hosts = hosts
	e.hostsMu.Unlock()
}
