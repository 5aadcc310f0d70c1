package dist

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mdq/internal/card"
	"mdq/internal/cost"
	"mdq/internal/cq"
	"mdq/internal/fetch"
	"mdq/internal/opt"
	"mdq/internal/plan"
	"mdq/internal/service"
	"mdq/internal/trace"
)

// DefaultSyncInterval is the bound-sync period when
// Coordinator.SyncInterval is unset: how often the coordinator
// exchanges incumbent bounds with every searching worker. Shorter
// intervals propagate pruning faster at the price of more round
// trips; syncing is pure optimization, so even a very slow interval
// only wastes search effort, never correctness.
const DefaultSyncInterval = 25 * time.Millisecond

// Coordinator fans a query's phase-1 assignment space out over
// workers (one congruence-class shard each), runs the bound-sync loop
// while they search, and merges the per-shard winners into the final
// plan with the optimizer's deterministic (feasible, cost,
// plan-signature) order. Template serving is unsharded: one worker's
// cache answers a hit, and a miss's merged winner is shipped to every
// worker (OptimizeTemplate). It also forwards the local registry's
// statistics-epoch bumps to every worker (Gossip / GossipLoop) and
// warms worker caches with serialized template entries (WarmWorkers).
type Coordinator struct {
	// Registry is the coordinator's local service view: winning
	// skeletons are rebuilt and priced against it, and its epoch
	// bumps are what gossip forwards.
	Registry *service.Registry
	// Workers are the transports to fan out over, one shard each.
	Workers []Transport
	// Metric is the optimization objective (nil means execution
	// time).
	Metric cost.Metric
	// Mode is the logical caching level assumed by the estimator.
	Mode card.CacheMode
	// K is the number of answers optimized for.
	K int
	// RevalidateRatio is passed through to worker template caches (0
	// means the optimizer default).
	RevalidateRatio float64
	// SyncInterval is the bound-sync period (0 means
	// DefaultSyncInterval).
	SyncInterval time.Duration
	// Hosts, when non-nil, is the per-worker service hosting
	// ExecutePlan partitions fragments by, index-aligned with
	// Workers. Leave nil to discover it via Transport.Services on
	// every execution; long-lived deployments with a fixed fleet
	// should DiscoverHosts once and reuse the result, saving one
	// round-trip per worker per execution.
	Hosts []map[string]bool
	// BufferSize is the per-arc channel capacity of ExecutePlan's
	// coordinator-side dataflow (0 means exec.DefaultBufferSize): each
	// inter-fragment stream buffers at most this many decoded tuples
	// between a worker's frame stream and the join consuming it, which
	// is what bounds coordinator memory by buffer size instead of
	// intermediate-result cardinality.
	BufferSize int
	// JoinExcessPeak, when non-nil, is raised to the largest number of
	// tuples any coordinator-side streaming join buffered beyond its
	// still-needed frontier (see exec.StreamJoin). Test
	// instrumentation for the bounded-memory contract.
	JoinExcessPeak *atomic.Int64
	// Membership, when non-nil, is the fleet health view dispatch
	// consults: workers marked down are skipped (search shards and
	// fragments fail over to live candidates), and every RPC outcome
	// the coordinator sees feeds back in as passive health evidence.
	// Nil means every worker is presumed alive — the single-process
	// and test default.
	Membership *Membership
	// Retry bounds how transiently failed dispatches (search shards,
	// fragment executions) are re-attempted; the zero value means the
	// package defaults, MaxRetries < 0 disables retries.
	Retry RetryPolicy
	// OnRetry, when non-nil, is called once per re-attempt with the
	// operation (an Op* constant) and the failed worker's name — the
	// serving layer's retry-counter hook.
	OnRetry func(op, worker string)
	// BatchSize overrides the tuple batch size of fragment result
	// streams (ExecuteRequest.BatchSize; 0 means DefaultExecuteBatch).
	// Smaller batches mean more frame boundaries — chiefly a dial for
	// the frame-boundary failover sweeps in tests.
	BatchSize int
	// Cache, when non-nil, also receives every template entry
	// OptimizeTemplate ships to the workers, so the coordinator process
	// can report, persist and re-ship (WarmWorkers) what its fleet
	// learned. It is never served from.
	Cache *opt.PlanCache
	// OnProbe, when non-nil, is called with each template probe's
	// outcome, "hit" or "miss" — the serving layer's counter hook.
	OnProbe func(outcome string)
}

// alive reports whether worker i may be dispatched to (no membership
// view means yes).
func (c *Coordinator) alive(i int) bool {
	return c.Membership == nil || c.Membership.Alive(i)
}

// reportOutcome feeds one RPC outcome into the membership view.
// Only transport-level evidence moves the state machine: a success
// resurrects, a transient failure counts against the worker, and a
// permanent error (bad query, tripped budget) says nothing about the
// worker's health.
func (c *Coordinator) reportOutcome(i int, err error) {
	if c.Membership == nil {
		return
	}
	switch {
	case err == nil:
		c.Membership.ReportSuccess(i)
	case IsTransient(err):
		c.Membership.ReportFailure(i, err)
	}
}

// noteRetry reports one re-attempt to the OnRetry hook.
func (c *Coordinator) noteRetry(op string, worker int) {
	if c.OnRetry != nil {
		c.OnRetry(op, c.Workers[worker].Name())
	}
}

// searchSeq and processToken make search IDs globally unique: workers
// key their active incumbent bounds by ID, and one worker typically
// serves many coordinators (mdqserve builds one per request, and
// several coordinator processes may share a fleet). A per-instance
// counter would hand every request the same "search-1", letting
// concurrent searches min-merge each other's bounds — which prunes
// against a bound from a different query and silently corrupts
// results.
var searchSeq atomic.Uint64

var processToken = func() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err)
	}
	return hex.EncodeToString(b[:])
}()

// nextID returns a globally unique search ID.
func (c *Coordinator) nextID() string {
	return fmt.Sprintf("s%s-%d", processToken, searchSeq.Add(1))
}

func (c *Coordinator) metric() cost.Metric {
	if c.Metric == nil {
		return cost.ExecTime{}
	}
	return c.Metric
}

func (c *Coordinator) syncInterval() time.Duration {
	if c.SyncInterval <= 0 {
		return DefaultSyncInterval
	}
	return c.SyncInterval
}

// Optimize distributes one full search and returns the merged
// result. The query must be resolved (against the coordinator's
// registry). The returned plan is identical to what a sequential
// in-process search would return, provided the workers'
// registries agree with the coordinator's on services and statistics.
func (c *Coordinator) Optimize(ctx context.Context, q *cq.Query) (*opt.Result, error) {
	base, err := c.request(q)
	if err != nil {
		return nil, err
	}
	n := len(c.Workers)
	base.ID = c.nextID()
	base.ShardCount = n

	searchCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]*SearchResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range c.Workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := base
			req.ShardIndex = i
			results[i], errs[i] = c.searchShard(searchCtx, req, i)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	c.syncLoop(searchCtx, base.ID, done)

	select {
	case <-ctx.Done():
		cancel()
		<-done
		return nil, ctx.Err()
	case <-done:
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	msp := trace.From(ctx).Child("dist.merge")
	res, err := c.merge(q, results)
	if msp != nil {
		msp.Set("shards", strconv.Itoa(n))
		msp.End()
	}
	return res, err
}

// request checks that the query can be dispatched and returns the
// part of a SearchRequest all dispatches of one optimization share.
func (c *Coordinator) request(q *cq.Query) (SearchRequest, error) {
	if len(c.Workers) == 0 {
		return SearchRequest{}, errors.New("dist: coordinator has no workers")
	}
	for _, a := range q.Atoms {
		if a.Sig == nil {
			return SearchRequest{}, fmt.Errorf("dist: query %s is not resolved", q.Name)
		}
	}
	return SearchRequest{
		Query:           q.String(),
		Metric:          c.metric().Name(),
		CacheMode:       c.Mode.String(),
		K:               c.K,
		RevalidateRatio: c.RevalidateRatio,
	}, nil
}

// OptimizeTemplate optimizes through the fleet's template plane: many
// bindings, one distributed search. A hit is one probe: a single
// worker — rotated across the live ones, failed over like a shard —
// re-costs its cached skeleton for the new bindings, and reports a miss
// rather than search. Only a miss (no entry, or a re-cost beyond
// RevalidateRatio) pays Optimize's sharded search, whose merged winner
// is then shipped to every live worker: workers never memoize their own
// shard's skeleton, so the next probe re-costs the plan that won.
func (c *Coordinator) OptimizeTemplate(ctx context.Context, q *cq.Query) (*opt.Result, error) {
	probe, err := c.request(q)
	if err != nil {
		return nil, err
	}
	probe.Template = true
	home := int(searchSeq.Add(1) % uint64(len(c.Workers)))
	hit, err := c.searchShard(ctx, probe, home)
	if err != nil {
		return nil, err
	}
	if c.OnProbe != nil {
		c.OnProbe(probeOutcome(hit.Found))
	}
	if hit.Found {
		return c.merge(q, []*SearchResult{hit})
	}
	res, err := c.Optimize(ctx, q)
	if err != nil {
		return nil, err
	}
	// The knobs Worker.Search gives its optimizer: the entry's key must
	// be the one the next probe looks up.
	o := &opt.Optimizer{
		Metric:          c.metric(),
		Estimator:       card.Config{Mode: c.Mode},
		K:               c.K,
		CacheSalt:       c.Registry.CacheSalt(),
		Epochs:          c.Registry,
		RevalidateRatio: c.RevalidateRatio,
	}
	learned := []opt.TemplateWireEntry{o.TemplateEntry(q, res)}
	c.Cache.ImportTemplates(learned, c.Registry)
	// Best-effort, like any warm-up: a worker that missed the entry
	// answers its next probe with a miss, and that search re-ships.
	c.WarmWorkers(ctx, learned)
	return res, nil
}

// searchShard runs one dispatch — a shard search or a template probe —
// with failover. It starts at the home worker (a shard's index); each
// transient failure rotates it to the next live worker — the shard
// travels whole inside the request, and every worker's template cache
// holds the same shipped winners, so the re-run returns the identical
// result wherever it lands. Permanent errors surface immediately; a
// fleet with every worker down fails with ErrNoLiveWorkers.
func (c *Coordinator) searchShard(ctx context.Context, req SearchRequest, home int) (*SearchResult, error) {
	n := len(c.Workers)
	qsp := trace.From(ctx)
	var lastErr error
	for attempt := 0; ; attempt++ {
		target := -1
		for off := 0; off < n; off++ {
			if w := (home + attempt + off) % n; c.alive(w) {
				target = w
				break
			}
		}
		if target < 0 {
			if lastErr != nil {
				return nil, fmt.Errorf("dist: search shard %d: %w (last failure: %v)", req.ShardIndex, ErrNoLiveWorkers, lastErr)
			}
			return nil, fmt.Errorf("dist: search shard %d: %w", req.ShardIndex, ErrNoLiveWorkers)
		}
		// One dispatch span per attempt; the successful one carries the
		// worker's spliced search spans.
		dsp := qsp.Child("dist.search.dispatch")
		dsp.Set("worker", c.Workers[target].Name())
		if !req.Template {
			dsp.Set("shard", strconv.Itoa(req.ShardIndex))
		}
		dsp.Set("attempt", strconv.Itoa(attempt))
		req.TraceID, req.TraceSpan = dsp.TraceID(), dsp.SpanID()
		res, err := c.Workers[target].Search(ctx, req)
		c.reportOutcome(target, err)
		if err == nil {
			if req.Template {
				dsp.Set("probe", probeOutcome(res.Found))
			}
			dsp.Splice(res.Spans)
			dsp.End()
			return res, nil
		}
		dsp.Set("error", err.Error())
		dsp.End()
		if !IsTransient(err) || ctx.Err() != nil || attempt >= c.Retry.maxRetries() {
			return nil, fmt.Errorf("dist: worker %s: %w", c.Workers[target].Name(), err)
		}
		lastErr = err
		c.noteRetry(OpSearch, target)
		if werr := c.Retry.wait(ctx, attempt); werr != nil {
			return nil, fmt.Errorf("dist: worker %s: %w", c.Workers[target].Name(), lastErr)
		}
	}
}

// probeOutcome names a template probe's result on spans and metrics.
func probeOutcome(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// syncLoop exchanges bounds with every live worker until the searches
// finish: offer the global minimum, min-merge what each worker
// reports back. Both directions are monotone, so the loop needs no
// locking discipline beyond the bound semantics themselves. A failed
// sync is a missed heartbeat, never a failed search — syncing is pure
// pruning optimization — so transport errors here only feed the
// membership view (down workers are skipped until a probe or RPC
// resurrects them).
func (c *Coordinator) syncLoop(ctx context.Context, id string, done <-chan struct{}) {
	global := math.Inf(1)
	ticker := time.NewTicker(c.syncInterval())
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return
		case <-ctx.Done():
			return
		case <-ticker.C:
			for i, tr := range c.Workers {
				if !c.alive(i) {
					continue
				}
				b, err := tr.Sync(ctx, id, toWireBound(global))
				if err != nil {
					if ctx.Err() == nil {
						c.reportOutcome(i, err)
					}
					continue
				}
				c.reportOutcome(i, nil)
				if b > 0 {
					global = math.Min(global, b)
				}
			}
		}
	}
}

// merge picks the winner among the shard results under the same
// deterministic order the in-process search uses — feasible first,
// then cost, then canonical plan signature — and rebuilds it against
// the coordinator's registry.
func (c *Coordinator) merge(q *cq.Query, results []*SearchResult) (*opt.Result, error) {
	var winner *SearchResult
	var stats opt.Stats
	found := 0
	for _, r := range results {
		if r == nil || !r.Found {
			continue
		}
		found++
		// Candidate/permissible counts describe the full space and
		// agree across shards; the effort counters add up.
		stats.StatesVisited += r.Stats.StatesVisited
		stats.StatesPruned += r.Stats.StatesPruned
		stats.Leaves += r.Stats.Leaves
		stats.FetchVectors += r.Stats.FetchVectors
		if r.Stats.CandidateAssignments > stats.CandidateAssignments {
			stats.CandidateAssignments = r.Stats.CandidateAssignments
		}
		if r.Stats.PermissibleAssignments > stats.PermissibleAssignments {
			stats.PermissibleAssignments = r.Stats.PermissibleAssignments
		}
		if winner == nil {
			winner = r
			continue
		}
		better := false
		switch {
		case r.Feasible != winner.Feasible:
			better = r.Feasible
		case r.Cost != winner.Cost:
			better = r.Cost < winner.Cost
		default:
			better = r.Signature < winner.Signature
		}
		if better {
			winner = r
		}
	}
	if winner == nil {
		return nil, fmt.Errorf("dist: no executable plan found for query %s in any shard", q.Name)
	}

	p, err := c.rebuild(q, winner)
	if err != nil {
		return nil, err
	}
	assigner := &fetch.Assigner{
		Estimator: card.Config{Mode: c.Mode},
		Metric:    c.metric(),
		K:         c.K,
	}
	fr := assigner.Assign(p)
	// The canonical signature covers the assigned fetch factors, so
	// the cross-check against the worker's report runs after phase 3:
	// a mismatch means the two sides priced the query off different
	// service definitions or statistics, which would silently break
	// the determinism contract.
	if sig := p.Signature(); sig != winner.Signature {
		return nil, fmt.Errorf("dist: rebuilt plan signature %s != worker-reported %s (registries disagree?)", sig, winner.Signature)
	}
	return &opt.Result{
		Best:        p,
		Cost:        fr.Cost,
		Feasible:    fr.Feasible || c.K <= 0,
		Stats:       stats,
		Cached:      winner.Cached,
		TemplateHit: winner.TemplateHit,
		Revalidated: winner.Revalidated,
	}, nil
}

// rebuild reconstructs the winning skeleton against the
// coordinator's registry (the signature cross-check happens in merge,
// after fetch factors are assigned).
func (c *Coordinator) rebuild(q *cq.Query, r *SearchResult) (*plan.Plan, error) {
	var chooser plan.MethodChooser
	if c.Registry != nil {
		chooser = c.Registry.MethodChooser()
	}
	return buildSkeleton(q, r.Assignment, r.Topology, chooser)
}

// Gossip synchronously delivers epoch bumps to every live worker,
// returning the first error (delivery to the remaining workers still
// proceeds — invalidation must not stop at the first slow worker).
// Down workers are skipped without error: a worker that missed a bump
// serves a stale-marked-late entry at worst, and the next bump after
// it rejoins repairs it.
func (c *Coordinator) Gossip(ctx context.Context, bumps []service.EpochBump) error {
	if len(bumps) == 0 {
		return nil
	}
	var first error
	for i, tr := range c.Workers {
		if !c.alive(i) {
			continue
		}
		err := tr.Gossip(ctx, bumps)
		c.reportOutcome(i, err)
		if err != nil && first == nil {
			first = fmt.Errorf("dist: gossip to %s: %w", tr.Name(), err)
		}
	}
	return first
}

// GossipLoop subscribes to the coordinator registry's epoch feed and
// forwards coalesced bumps to every worker until stop is called —
// the push half of cross-process cache coherence. Delivery errors
// are dropped after onError (which may be nil): a worker that missed
// a bump serves a stale-marked-late entry at worst, and the next
// bump for the service repairs it (epoch compares are by inequality,
// not order).
func (c *Coordinator) GossipLoop(onError func(error)) (stop func()) {
	feed := c.Registry.NewEpochFeed()
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for {
			select {
			case <-done:
				return
			case <-feed.Wait():
				if bumps := feed.Next(); bumps != nil {
					if err := c.Gossip(context.Background(), bumps); err != nil && onError != nil {
						onError(err)
					}
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			feed.Close()
			close(done)
			<-finished
		})
	}
}

// WarmWorkers ships template entries in wire form — a cache's
// opt.PlanCache.ExportTemplates, or one freshly merged winner — to
// every live worker; it returns the total number of entries accepted
// across workers. Warming is best-effort per worker: a worker that
// fails transiently (or is down) is skipped rather than aborting the
// remaining deliveries — a cold cache costs one search, not
// correctness — and the first failure is still reported so the caller
// can log it.
func (c *Coordinator) WarmWorkers(ctx context.Context, entries []opt.TemplateWireEntry) (int, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	total := 0
	var first error
	for i, tr := range c.Workers {
		if !c.alive(i) {
			continue
		}
		n, err := tr.ImportTemplates(ctx, entries)
		c.reportOutcome(i, err)
		if err != nil {
			if first == nil {
				first = fmt.Errorf("dist: warming %s: %w", tr.Name(), err)
			}
			continue
		}
		total += n
	}
	return total, first
}
