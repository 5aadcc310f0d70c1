// Package dist distributes the three-phase branch-and-bound and the
// execution of its winning plans across processes: a Coordinator
// shards the phase-1 assignment space over remote Workers, shares the
// incumbent bound between them while they search (periodic bound-sync
// with monotone min-merge), merges the per-shard winners
// deterministically, gossips statistics-epoch bumps so remote plan
// caches invalidate and revalidate exactly like local ones, and
// executes winning plans as worker-side fragments — linear chains of
// the plan DAG shipped to the workers hosting their services, tuples
// streamed back, joins performed at the coordinator (see
// PartitionPlan, Coordinator.ExecutePlan and the reverse gossip notes
// on Worker.DrainBumps).
//
// The division of labor:
//
//   - each Worker owns a service.Registry (its local view of the
//     services' signatures and statistics) and an opt.PlanCache; a
//     search request names a shard, and the worker runs the ordinary
//     opt.Optimizer over that slice of the assignment space;
//   - the Coordinator ships the query as datalog text (Query.String
//     round-trips through cq.Parse), so workers resolve it against
//     their own registries — plans are priced with worker-local
//     statistics and revalidated there, never shipped pre-priced;
//   - winning plans travel as skeletons — access-pattern assignment
//     plus topology, the same wire form template cache entries use —
//     and the coordinator rebuilds and re-prices the winner against
//     its own registry, verifying the plan signature matches what the
//     worker reported;
//   - cache coherence rides the statistics-epoch wire format: the
//     coordinator forwards (service, epoch) bumps from its registry's
//     epoch feed, and each worker applies PlanCache.InvalidateService,
//     so the existing stale-marking/revalidation machinery runs
//     unchanged on remote caches.
//
// Transports are pluggable: HTTPTransport speaks JSON over HTTP to a
// Worker.Handler (the cmd/mdqworker server), and LocalTransport wires
// a Worker in-process so the full protocol — sharding, bound-sync,
// gossip, warmup — is exercised by ordinary tests without sockets.
//
// Determinism: a distributed full search returns exactly the
// sequential optimizer's plan. Sharding partitions the assignment
// space; a shared bound only prunes states that cannot complete into
// an optimal-cost plan; per-shard winners and the coordinator's merge
// use the same (feasible, cost, plan-signature) order the in-process
// parallel search uses — so the merge is associative and
// timing-independent, provided coordinator and workers agree on the
// service statistics. (Template-level serving relaxes this the same
// way single-node template caching does: a cached skeleton within the
// revalidation ratio is served without re-searching.)
package dist

import (
	"math"

	"mdq/internal/opt"
	"mdq/internal/plan"
	"mdq/internal/service"
	"mdq/internal/trace"
)

// SearchRequest asks a worker to search one shard of a query's
// assignment space. All fields ride the HTTP/JSON wire.
type SearchRequest struct {
	// ID names the search for mid-flight bound-sync calls; unique per
	// coordinator optimization.
	ID string `json:"id"`
	// Query is the resolved query rendered as datalog text
	// (cq.Query.String); the worker parses and re-resolves it against
	// its local registry.
	Query string `json:"query"`
	// Metric is the cost metric name (cost.ByName).
	Metric string `json:"metric"`
	// CacheMode is the logical caching level name (card.ModeByName).
	CacheMode string `json:"cache_mode"`
	// K is the number of answers optimized for.
	K int `json:"k"`
	// ShardIndex / ShardCount name the slice of the assignment space
	// to search (opt.Shard).
	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`
	// Bound seeds the worker's incumbent with a bound already known
	// to the coordinator (0 means none; bounds are costs of feasible
	// plans and therefore positive).
	Bound float64 `json:"bound,omitempty"`
	// Template makes the request a template probe
	// (opt.Optimizer.ServeTemplate): the worker re-costs its cached
	// skeleton of the query's template for these bindings, or answers
	// Found=false — it never searches. Probes are unsharded and carry
	// no ID (there is no bound to sync).
	Template bool `json:"template,omitempty"`
	// RevalidateRatio is the template-cache divergence bound (0 means
	// the optimizer default).
	RevalidateRatio float64 `json:"revalidate_ratio,omitempty"`
	// TraceID and TraceSpan propagate the coordinator's trace context
	// over the wire — the trace header of the search RPC, honored
	// identically by LocalTransport (the struct travels as-is) and
	// HTTPTransport (JSON body, mirrored in an X-Mdq-Trace-Id header
	// for HTTP-level correlation). A non-empty TraceID makes the
	// worker record its shard search into a local trace seeded with it
	// and ship the spans back on SearchResult.Spans; TraceSpan names
	// the dispatching span for correlation (the coordinator reparents
	// the shipped spans under it when splicing).
	TraceID   string `json:"trace_id,omitempty"`
	TraceSpan uint64 `json:"trace_span,omitempty"`
}

// SearchResult is a worker's answer for one shard.
type SearchResult struct {
	// Found is false when the shard contained no executable plan
	// (opt.ErrNoPlanInShard) — an expected outcome when shards
	// outnumber permissible assignments, merged as an empty
	// contribution — and when a template probe missed.
	Found bool `json:"found"`
	// Cost and Feasible describe the shard's winning plan under the
	// worker's local statistics.
	Cost     float64 `json:"cost,omitempty"`
	Feasible bool    `json:"feasible,omitempty"`
	// Signature is the winning plan's canonical signature — the
	// deterministic tie-break key of the coordinator's merge, and the
	// cross-check for the coordinator's local rebuild.
	Signature string `json:"signature,omitempty"`
	// Assignment and Topology are the winning plan's skeleton, enough
	// for the coordinator to rebuild the full plan against its own
	// registry (the same wire form template cache entries use).
	Assignment []string       `json:"assignment,omitempty"`
	Topology   *plan.Topology `json:"topology,omitempty"`
	// Stats are the worker's search-effort counters for the shard.
	Stats opt.Stats `json:"stats"`
	// Cached / TemplateHit / Revalidated report how the worker's plan
	// cache served the shard (see opt.Result).
	Cached      bool `json:"cached,omitempty"`
	TemplateHit bool `json:"template_hit,omitempty"`
	Revalidated bool `json:"revalidated,omitempty"`
	// Bound is the worker's final incumbent bound (0 means +Inf).
	Bound float64 `json:"bound,omitempty"`
	// Spans are the worker-side search spans of a traced request
	// (SearchRequest.TraceID), in worker-local ID space; the
	// coordinator splices them under its per-shard dispatch span
	// (trace.Trace.Splice).
	Spans []trace.Span `json:"spans,omitempty"`
}

// SyncRequest is one bound-sync exchange: the coordinator offers the
// global minimum, the worker merges it into the named search's
// incumbent and returns its own current bound. Both directions are
// monotone min-merges, so lost or reordered syncs only delay pruning,
// never corrupt it.
type SyncRequest struct {
	// ID names the search (SearchRequest.ID).
	ID string `json:"id"`
	// Bound is the coordinator's global minimum (0 means none yet).
	Bound float64 `json:"bound,omitempty"`
}

// SyncResponse returns the worker's current incumbent for the search
// (0 means +Inf or unknown search — either way, no information).
type SyncResponse struct {
	// Bound is the worker's incumbent after the merge.
	Bound float64 `json:"bound,omitempty"`
}

// GossipRequest carries coalesced statistics-epoch bumps to a
// worker's plan cache.
type GossipRequest struct {
	// Bumps are the (service, epoch) pairs to apply, exactly as
	// service.Registry.SubscribeEpochs would deliver them locally.
	Bumps []service.EpochBump `json:"bumps"`
}

// ImportResponse reports how many template entries a worker accepted.
type ImportResponse struct {
	// Imported counts accepted entries.
	Imported int `json:"imported"`
}

// toWireBound encodes a bound for the wire: +Inf (no bound) becomes
// the JSON-friendly 0.
func toWireBound(b float64) float64 {
	if math.IsInf(b, 1) {
		return 0
	}
	return b
}

// fromWireBound decodes a wire bound: 0 or less means none (+Inf).
func fromWireBound(b float64) float64 {
	if b <= 0 {
		return math.Inf(1)
	}
	return b
}
