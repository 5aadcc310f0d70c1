package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"mdq/internal/card"
	"mdq/internal/cost"
	"mdq/internal/cq"
	"mdq/internal/exec"
	"mdq/internal/opt"
	"mdq/internal/serve"
	"mdq/internal/service"
	"mdq/internal/trace"
)

// Worker executes shard searches against a local service registry
// and plan cache — the server side of the subsystem. One worker
// serves many concurrent searches; each search registers its
// incumbent bound under the request ID so mid-flight Sync calls can
// merge bounds both ways.
//
// The worker's cache is wired to its own registry's epoch bumps at
// construction (local statistics refreshes invalidate locally, as in
// a single-process server); Gossip applies remote bumps through the
// identical path, so cross-process coherence reuses the cache's
// stale-marking and revalidation machinery unchanged.
type Worker struct {
	reg   *service.Registry
	cache *opt.PlanCache
	// Parallelism is the in-process search parallelism per shard
	// (opt.Optimizer.Parallelism; 0 means one worker per CPU).
	Parallelism int
	// Feedback, when non-nil, is the worker-local feedback policy
	// fragment executions run under: traffic that flowed through this
	// worker's observed services is folded back into its profiles
	// after each fragment, bumping worker-local statistics epochs.
	// Those bumps are what the reverse gossip path reports upstream
	// (see DrainBumps).
	Feedback *service.FeedbackPolicy
	// ExecuteDisabled refuses fragment-execution requests — the
	// server side of `mdqworker -execute=false`, for deployments that
	// shard only the search.
	ExecuteDisabled bool
	// BufferSize is the per-arc channel capacity of fragment
	// executions (exec.Runner.BufferSize; 0 means the executor
	// default) — the worker half of the streaming runtime's
	// memory/latency dial.
	BufferSize int
	// ResultCache, when set, is the worker's shared service-call
	// result store (exec.Runner.ResultCache), consulted by every
	// fragment execution so identical invocations across fragments —
	// and across the queries that dispatched them — reach each
	// service once. Point it at a rescache.Store bound to the
	// worker's registry so local feedback refreshes and incoming
	// Gossip epoch bumps both evict eagerly (`mdqworker -rescache`).
	ResultCache exec.Cache

	// feed collects the worker registry's own epoch bumps (local
	// statistics refreshes, e.g. from execution feedback) for
	// reporting back to the coordinator; incoming Gossip never lands
	// here, so reverse gossip cannot echo.
	feed *service.EpochFeed

	mu     sync.Mutex
	active map[string]*activeSearch
}

// activeSearch is one running search's shared incumbent bound,
// refcounted because failover can land two shards of the same search
// on one worker: both must sync through one bound, and the entry must
// survive until the last shard finishes.
type activeSearch struct {
	bound *opt.Bound
	refs  int
}

// NewWorker builds a worker over a registry and plan cache. The
// cache may be nil (searches then run uncached and gossip is a
// no-op); when present it is subscribed to the registry's epoch
// bumps.
func NewWorker(reg *service.Registry, cache *opt.PlanCache) *Worker {
	if cache != nil {
		reg.SubscribeEpochs(cache, cache.InvalidateService)
	}
	return &Worker{
		reg:    reg,
		cache:  cache,
		feed:   reg.NewEpochFeed(),
		active: map[string]*activeSearch{},
	}
}

// DrainBumps returns the coalesced worker-local statistics-epoch
// bumps accumulated since the last drain — the payload of the
// reverse gossip path. A worker's own refreshes (execution feedback,
// manual re-profiling) land here; bumps received via Gossip do not,
// since Gossip only touches the plan cache. Fragment-execution
// results piggyback these so the coordinator can re-bump its own
// epochs and fan the invalidation out to the rest of the fleet.
func (w *Worker) DrainBumps() []service.EpochBump {
	return w.feed.Next()
}

// Registry exposes the worker's local registry.
func (w *Worker) Registry() *service.Registry { return w.reg }

// Cache exposes the worker's plan cache (nil when uncached).
func (w *Worker) Cache() *opt.PlanCache { return w.cache }

// Search runs one shard search: parse and resolve the query against
// the local registry, seed the incumbent with the coordinator's
// bound, and run the ordinary optimizer over the shard. An empty
// shard is not an error — it returns Found=false. A template probe
// (req.Template) only consults the plan cache, and a miss returns
// Found=false too: shard searches are never memoized as templates —
// the coordinator ships the merged winner's entry (ImportTemplates).
func (w *Worker) Search(ctx context.Context, req SearchRequest) (*SearchResult, error) {
	metric, mode, k, err := searchKnobs(req)
	if err != nil {
		return nil, err
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

	bound := opt.NewBound()
	if req.ID != "" {
		// Two shards of one search can run here at once (failover moves
		// a dead worker's shard to a live one): share one bound per
		// search ID so their syncs min-merge, and drop the entry only
		// when the last shard finishes.
		w.mu.Lock()
		if as, ok := w.active[req.ID]; ok {
			bound = as.bound
			as.refs++
		} else {
			w.active[req.ID] = &activeSearch{bound: bound, refs: 1}
		}
		w.mu.Unlock()
		defer func() {
			w.mu.Lock()
			if as, ok := w.active[req.ID]; ok {
				as.refs--
				if as.refs <= 0 {
					delete(w.active, req.ID)
				}
			}
			w.mu.Unlock()
		}()
	}
	if req.Bound > 0 {
		bound.Offer(req.Bound)
	}

	o := &opt.Optimizer{
		Metric:          metric,
		Estimator:       card.Config{Mode: mode},
		K:               k,
		ChooseMethod:    w.reg.MethodChooser(),
		Parallelism:     w.Parallelism,
		Cache:           w.cache,
		CacheSalt:       w.reg.CacheSalt(),
		Epochs:          w.reg,
		RevalidateRatio: req.RevalidateRatio,
		Shard:           opt.Shard{Index: req.ShardIndex, Count: req.ShardCount},
		Bound:           bound,
	}
	// A traced search records into a worker-local trace seeded with
	// the shipped ID. The local root has parent 0 — never a
	// coordinator-side span ID, which could collide with worker-local
	// IDs (both sequences start at 1) and corrupt the splice remap —
	// so Splice reparents it under the dispatching span.
	var wtr *trace.Trace
	var rootSp *trace.Span
	if req.TraceID != "" {
		wtr = trace.New(req.TraceID)
		rootSp = wtr.Root("worker.search")
		rootSp.Set("shard", strconv.Itoa(req.ShardIndex))
		o.Span = rootSp
	}
	var res *opt.Result
	if req.Template {
		res, err = o.ServeTemplate(q)
	} else {
		res, err = o.Optimize(q)
	}
	rootSp.End()
	if errors.Is(err, opt.ErrNoPlanInShard) || (res == nil && err == nil) {
		return &SearchResult{Found: false, Bound: toWireBound(bound.Load()), Spans: wtr.Spans()}, nil
	}
	if err != nil {
		return nil, err
	}
	out := &SearchResult{
		Found:       true,
		Cost:        res.Cost,
		Feasible:    res.Feasible,
		Signature:   res.Best.Signature(),
		Topology:    res.Best.Topology.Clone(),
		Stats:       res.Stats,
		Cached:      res.Cached,
		TemplateHit: res.TemplateHit,
		Revalidated: res.Revalidated,
		Bound:       toWireBound(bound.Load()),
		Spans:       wtr.Spans(),
	}
	for _, p := range res.Best.Assignment {
		out.Assignment = append(out.Assignment, p.String())
	}
	return out, nil
}

// searchKnobs resolves the named metric, cache mode and k.
func searchKnobs(req SearchRequest) (cost.Metric, card.CacheMode, int, error) {
	name := req.Metric
	if name == "" {
		name = "etm"
	}
	metric, ok := cost.ByName(name)
	if !ok {
		return nil, 0, 0, fmt.Errorf("dist: unknown metric %q", req.Metric)
	}
	mode, ok := card.ModeByName(req.CacheMode)
	if !ok {
		return nil, 0, 0, fmt.Errorf("dist: unknown cache mode %q", req.CacheMode)
	}
	return metric, mode, req.K, nil
}

// Sync merges an offered bound into the named search's incumbent and
// returns the worker's current bound for it (0 when the search is
// unknown — finished, not started, or a stale ID; the caller learns
// nothing from it). Both directions are monotone, so syncs commute.
func (w *Worker) Sync(id string, bound float64) float64 {
	w.mu.Lock()
	as, ok := w.active[id]
	w.mu.Unlock()
	if !ok {
		return 0
	}
	if bound > 0 {
		as.bound.Offer(bound)
	}
	return toWireBound(as.bound.Load())
}

// Gossip applies remote statistics-epoch bumps to the worker's plan
// cache — exact entries touching a bumped service are dropped,
// template entries marked stale for revalidation, the identical
// machinery a local epoch bump drives — and to the shared result
// cache, where every entry of a bumped service is dropped outright
// (remote epoch numbers say nothing about local stamps, so nothing
// survivable can be distinguished).
func (w *Worker) Gossip(bumps []service.EpochBump) {
	dropper, _ := w.ResultCache.(interface{ DropService(string) })
	for _, b := range bumps {
		w.cache.InvalidateService(b.Service, b.Epoch)
		if dropper != nil {
			dropper.DropService(b.Service)
		}
	}
}

// ImportTemplates installs serialized template entries into the
// worker's cache; entries whose distribution fingerprints do not
// match the worker's local statistics enter stale and revalidate on
// first use.
func (w *Worker) ImportTemplates(entries []opt.TemplateWireEntry) int {
	if w.cache == nil {
		return 0
	}
	return w.cache.ImportTemplates(entries, w.reg)
}

// ExportTemplates snapshots the worker's template entries in wire
// form.
func (w *Worker) ExportTemplates() []opt.TemplateWireEntry {
	return w.cache.ExportTemplates()
}

// HealthResponse is what GET /dist/health returns — deliberately
// tiny: the probe's job is liveness, and a worker buried in work must
// still answer it cheaply.
type HealthResponse struct {
	// Status is "ok" whenever the handler answers at all.
	Status string `json:"status"`
	// Executing reports whether fragment execution is enabled.
	Executing bool `json:"executing"`
	// ActiveSearches counts the searches currently holding an
	// incumbent bound here.
	ActiveSearches int `json:"active_searches"`
}

// apiError is the JSON error envelope of every worker endpoint.
type apiError struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
	// BudgetExceeded marks the error as a query-budget violation so
	// HTTP clients can map the envelope back to the typed
	// serve.ErrBudgetExceeded; BudgetReason and BudgetLimit carry the
	// violated dimension for the reconstruction.
	BudgetExceeded bool   `json:"budget_exceeded,omitempty"`
	BudgetReason   string `json:"budget_reason,omitempty"`
	BudgetLimit    string `json:"budget_limit,omitempty"`
}

func writeError(rw http.ResponseWriter, status int, format string, args ...any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(apiError{Error: fmt.Sprintf(format, args...), Status: status})
}

func writeJSON(rw http.ResponseWriter, v any) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(v)
}

// Handler exposes the worker protocol over HTTP:
//
//	POST /dist/search    SearchRequest → SearchResult
//	POST /dist/sync      SyncRequest → SyncResponse
//	POST /dist/gossip    GossipRequest → ImportResponse (bumps applied)
//	POST /dist/templates []opt.TemplateWireEntry → ImportResponse
//	GET  /dist/templates → []opt.TemplateWireEntry
//	GET  /dist/info      → worker summary (services, epochs, cache)
//	GET  /dist/health    → HealthResponse (the membership probe target)
//
// Mount it next to httpwrap.ServeRegistry to serve both the services
// and the optimization protocol from one listener (cmd/mdqworker).
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/dist/search", func(rw http.ResponseWriter, r *http.Request) {
		var req SearchRequest
		if !decodePost(rw, r, &req) {
			return
		}
		res, err := w.Search(r.Context(), req)
		if err != nil {
			writeError(rw, http.StatusUnprocessableEntity, "search: %v", err)
			return
		}
		writeJSON(rw, res)
	})
	mux.HandleFunc("/dist/sync", func(rw http.ResponseWriter, r *http.Request) {
		var req SyncRequest
		if !decodePost(rw, r, &req) {
			return
		}
		writeJSON(rw, SyncResponse{Bound: w.Sync(req.ID, req.Bound)})
	})
	mux.HandleFunc("/dist/gossip", func(rw http.ResponseWriter, r *http.Request) {
		var req GossipRequest
		if !decodePost(rw, r, &req) {
			return
		}
		w.Gossip(req.Bumps)
		writeJSON(rw, ImportResponse{Imported: len(req.Bumps)})
	})
	mux.HandleFunc("/dist/templates", func(rw http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			entries := w.ExportTemplates()
			if entries == nil {
				entries = []opt.TemplateWireEntry{}
			}
			writeJSON(rw, entries)
		case http.MethodPost:
			var entries []opt.TemplateWireEntry
			if err := json.NewDecoder(r.Body).Decode(&entries); err != nil {
				writeError(rw, http.StatusBadRequest, "decoding entries: %v", err)
				return
			}
			writeJSON(rw, ImportResponse{Imported: w.ImportTemplates(entries)})
		default:
			writeError(rw, http.StatusMethodNotAllowed, "GET or POST required")
		}
	})
	mux.HandleFunc("/dist/execute", func(rw http.ResponseWriter, r *http.Request) {
		var req ExecuteRequest
		if !decodePost(rw, r, &req) {
			return
		}
		if w.ExecuteDisabled {
			writeError(rw, http.StatusForbidden, "fragment execution is disabled on this worker")
			return
		}
		rw.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(rw)
		flusher, _ := rw.(http.Flusher)
		streamed := false
		seq := 0
		var line []byte // reused across the stream's batch frames
		res, err := w.ExecuteFragment(r.Context(), req, func(batch []WireTuple) error {
			streamed = true
			var err error
			if line, err = appendFrame(line[:0], &ExecuteFrame{Batch: batch, Seq: seq}); err != nil {
				return err
			}
			seq++
			if _, err := rw.Write(line); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		})
		if err != nil {
			budget := errors.Is(err, serve.ErrBudgetExceeded)
			var reason, limit string
			var be *serve.BudgetError
			if errors.As(err, &be) {
				reason, limit = be.Reason, be.Limit
			}
			if !streamed {
				status := http.StatusUnprocessableEntity
				if budget {
					status = http.StatusGatewayTimeout
				}
				rw.Header().Set("Content-Type", "application/json")
				rw.WriteHeader(status)
				json.NewEncoder(rw).Encode(apiError{Error: fmt.Sprintf("execute: %v", err), Status: status,
					BudgetExceeded: budget, BudgetReason: reason, BudgetLimit: limit})
				return
			}
			// The stream is already committed (200 + batches on the
			// wire); the error travels as a frame instead.
			enc.Encode(ExecuteFrame{Error: err.Error(), BudgetExceeded: budget, BudgetReason: reason, BudgetLimit: limit})
			return
		}
		enc.Encode(ExecuteFrame{Done: res})
	})
	mux.HandleFunc("/dist/health", func(rw http.ResponseWriter, r *http.Request) {
		w.mu.Lock()
		searches := len(w.active)
		w.mu.Unlock()
		writeJSON(rw, HealthResponse{
			Status:         "ok",
			Executing:      !w.ExecuteDisabled,
			ActiveSearches: searches,
		})
	})
	mux.HandleFunc("/dist/info", func(rw http.ResponseWriter, r *http.Request) {
		type info struct {
			Services []string          `json:"services"`
			Epochs   map[string]uint64 `json:"epochs"`
			Cache    opt.CacheStats    `json:"cache"`
		}
		var names []string
		for _, svc := range w.reg.Services() {
			names = append(names, svc.Signature().Name)
		}
		writeJSON(rw, info{Services: names, Epochs: w.reg.Epochs(), Cache: w.cache.Stats()})
	})
	return mux
}

// decodePost enforces POST + JSON body; it reports success.
func decodePost(rw http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeError(rw, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}
