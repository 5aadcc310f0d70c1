// Command mdqserve exposes a built-in simulated deep-web world over
// HTTP, so that mdqrun -remote (or any mdq client) can optimize and
// execute multi-domain queries against real web services. It also
// serves the adaptive optimization loop: a query-optimization
// endpoint backed by the parallel branch-and-bound, a shared plan
// cache with template-level entries, statistics observers on every
// service, and a feedback policy that folds executed traffic back
// into the profiles (bumping stats epochs that invalidate or
// revalidate cached plans).
//
// Usage:
//
//	mdqserve [-addr :8080] [-world travel|bio|mashup|zipf] [-scale 0.001]
//	         [-parallel -1] [-plancache 128] [-cachettl 0]
//	         [-cachebytes 0] [-revalidate-ratio 4] [-feedback]
//	         [-workers http://w1:8090,http://w2:8091] [-cache-file plans.json]
//	         [-buffer 128] [-health-interval 2s] [-max-retries 2]
//	         [-coalesce] [-rescache 4096] [-rescache-bytes N] [-rescache-ttl 0]
//
// With -scale > 0 every request really sleeps the scaled simulated
// latency (Table 1 of the paper: a flight call simulates 9.7 s, so
// -scale 0.001 makes it 9.7 ms).
//
// With -workers the server becomes a distributed coordinator: POST
// /optimize and POST /query shard the branch-and-bound across the
// listed mdqworker processes (incumbent bound shared mid-search,
// deterministic merge), and /query executions run through the fleet
// too — the winning plan is cut into fragments executed on the
// workers hosting their services (tuples stream back, joins happen
// here). Statistics-epoch bumps are gossiped to the workers' plan
// caches in both directions: local refreshes fan out through the
// gossip loop, and worker-side feedback refreshes return piggybacked
// on fragment results before being re-broadcast. The local template
// cache warms the workers at startup. Workers must serve the same
// world, with -execute enabled (the default). Note that in
// coordinator mode execution traffic flows through the workers'
// services, so this server's -feedback* flags gate only
// single-process execution; profile learning happens under each
// worker's own -feedback policy.
//
// Coordinator mode is fault tolerant: each worker is health-probed
// every -health-interval (GET /dist/health) and walks an
// up/suspect/down state machine also fed by every RPC outcome.
// Transiently failed dispatches — a refused connection, a dropped
// stream, a 5xx — retry up to -max-retries times with backoff,
// failing a search shard or plan fragment over to another live worker
// (mid-stream fragment failover resumes from a cursor, so no tuple is
// duplicated or lost); query errors and budget trips never retry.
// GET /fleet reports the membership view, and the mdq_fleet_workers,
// mdq_search_retries_total and mdq_fragment_retries_total metrics
// export it.
//
// With -cache-file the template-level plan cache is loaded at startup
// (stale entries revalidate on first use) and saved on SIGINT or
// SIGTERM, so optimization warmup survives restarts.
//
// Cross-query sharing: -coalesce (on by default) merges concurrent
// /query requests with identical canonical query, bindings and knobs
// into one in-flight optimize+execute — waiters share the leader's
// rows, keep their own budgets/deadlines/traces, and are counted by
// mdq_query_coalesced_total. -rescache bounds the shared service-call
// result cache consulted by single-process executions before a
// logical call is charged (0 disables); entries are stamped with the
// service's statistics epoch and dropped the moment it moves, so a
// re-profile can never serve stale rows. In coordinator mode the
// equivalent store lives on each worker (mdqworker -rescache), next to
// the services whose calls it saves.
//
// Tracing: a request carrying "trace": true returns an explain-style
// span tree on the response — optimizer phases, cache outcome,
// fragment dispatches (with retries and failovers), and every plan
// node's estimated cost/cardinality next to the observed tuple and
// call counts, including spans recorded on remote workers and spliced
// under their dispatch spans. -trace-sample 0.01 additionally traces
// 1% of requests unasked, and when -slow-above is set every
// slowlog-qualifying request keeps its trace. Kept traces are
// retrievable from the ring-buffered store (GET /trace, GET
// /trace/{id}). Structured audit events — slow queries, membership
// transitions, dispatch retries, budget trips — stream from GET
// /events as ndjson (bounded buffer; evictions are counted by
// mdq_events_dropped_total and resumable with ?after=N). -pprof
// additionally mounts net/http/pprof under /debug/pprof/ (off by
// default; enable only on trusted networks).
//
// Endpoints (all errors are JSON: {"error": "...", "status": N}):
//
//	POST /optimize  {"query": "...", "metric": "etm", "k": 10, "cache": "one-call"}
//	    → the chosen plan, cost, search statistics, cache flags.
//	POST /query     {"template": "... $param ...", "bindings": {"param": ...},
//	                 "metric": "etm", "k": 10, "cache": "one-call", "execute": true}
//	    → optimizes through the template cache (one search serves all
//	      bindings) and, unless execute is false, runs the plan and
//	      returns the answers; execution traffic feeds the profiles.
//	GET  /cache     → cache counters plus per-entry kind/epochs/staleness.
//	GET  /stats     → per-service profiled statistics, epochs,
//	                  observation windows and per-attribute value
//	                  distribution summaries (rows, distinct count,
//	                  buckets, top most-common values).
//	GET  /optimize/stats → cache counters only (kept for older clients).
//	GET  /fleet     → worker membership states, failure counts, last
//	                  probe/error (coordinator mode; 404 otherwise).
//	GET  /trace     → newest-first summaries of retained traces;
//	                  /trace/{id} returns one full span tree.
//	GET  /events    → audit event stream as ndjson (?after=N resumes
//	                  past a previously seen sequence number).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mdq/internal/card"
	"mdq/internal/cost"
	"mdq/internal/cq"
	"mdq/internal/dist"
	"mdq/internal/exec"
	"mdq/internal/httpwrap"
	"mdq/internal/opt"
	"mdq/internal/rescache"
	"mdq/internal/schema"
	"mdq/internal/serve"
	"mdq/internal/service"
	"mdq/internal/simweb"
	"mdq/internal/trace"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		worldName  = flag.String("world", "travel", "built-in world: travel, bio, mashup or zipf")
		scale      = flag.Float64("scale", 0, "sleep scale for simulated latencies (0 = report only)")
		jitter     = flag.Float64("jitter", 0, "log-normal latency jitter sigma")
		parallel   = flag.Int("parallel", opt.AutoParallelism, "optimizer search workers (-1 = one per CPU, 1 = sequential)")
		planCache  = flag.Int("plancache", 128, "plan cache capacity in entries (0 disables)")
		cacheTTL   = flag.Duration("cachettl", 0, "plan cache entry TTL (0 = no expiry)")
		cacheBytes = flag.Int64("cachebytes", 0, "approximate plan cache byte budget (0 = unlimited)")
		revalRatio = flag.Float64("revalidate-ratio", opt.DefaultRevalidateRatio, "template-cache cost divergence triggering a fresh search")
		feedback   = flag.Bool("feedback", true, "fold executed traffic back into service profiles (stats epochs)")
		minCalls   = flag.Int64("feedback-min-calls", 4, "observed calls required before a profile refresh")
		minDrift   = flag.Float64("feedback-min-drift", 0.1, "relative statistics drift required before a refresh")
		workerList = flag.String("workers", "", "comma-separated mdqworker base URLs; enables coordinator mode")
		healthIvl  = flag.Duration("health-interval", dist.DefaultHealthInterval, "worker health-probe period in coordinator mode (0 disables active probing; passive RPC feedback still applies)")
		maxRetries = flag.Int("max-retries", dist.DefaultMaxRetries, "re-attempts for a transiently failed worker dispatch (0 disables retries)")
		bufferSize = flag.Int("buffer", exec.DefaultBufferSize, "streaming executor edge buffer in tuples (larger = fewer stalls, more memory; smaller = tighter memory, earlier backpressure)")
		cacheFile  = flag.String("cache-file", "", "load the template cache from this file at start and save it on SIGINT/SIGTERM")

		rescacheN     = flag.Int("rescache", rescache.DefaultMaxEntries, "shared service-call result cache capacity in entries (0 disables)")
		rescacheBytes = flag.Int64("rescache-bytes", rescache.DefaultMaxBytes, "approximate result cache byte budget (<0 = unlimited)")
		rescacheTTL   = flag.Duration("rescache-ttl", 0, "result cache entry TTL (0 = no expiry; epochs still invalidate)")
		coalesce      = flag.Bool("coalesce", true, "coalesce identical concurrent /query requests onto one optimize+execute")

		maxInFlight  = flag.Int("max-inflight", 64, "max concurrent /optimize and /query requests (0 = unlimited)")
		queueWait    = flag.Duration("queue-wait", time.Second, "max time a request waits for an in-flight slot before 429")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "max time to drain in-flight requests on shutdown")
		slowlogCap   = flag.Int("slowlog", 128, "slow-query log capacity (GET /slowlog)")
		slowAbove    = flag.Duration("slow-above", 0, "only log requests at least this slow (0 = log all)")
		defDeadline  = flag.Duration("default-deadline", 0, "default per-query deadline when requests set no deadline_ms (0 = none)")
		defMaxCalls  = flag.Int64("default-max-calls", 0, "default per-query service-call cap when requests set no max_calls (0 = none)")
		traceSample  = flag.Float64("trace-sample", 0, "fraction of requests to trace unasked (0 = only explicit or slowlog-qualifying; 1 = all)")
		pprofFlag    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default)")
	)
	flag.Parse()

	reg, _, err := simweb.World(*worldName, simweb.TravelOptions{JitterSigma: *jitter})
	if err != nil {
		log.Fatal(err)
	}
	reg.ObserveAll()

	mux, names := httpwrap.ServeRegistry(reg, httpwrap.HandlerOptions{SleepScale: *scale})
	var pc *opt.PlanCache
	if *planCache > 0 {
		pc = opt.NewPlanCacheWith(opt.Policy{Capacity: *planCache, TTL: *cacheTTL, MaxBytes: *cacheBytes})
		reg.SubscribeEpochs(pc, pc.InvalidateService)
	}
	if *cacheFile != "" && pc != nil {
		if n, err := pc.LoadFile(*cacheFile, reg); err != nil {
			if !os.IsNotExist(err) {
				log.Fatalf("loading cache file: %v", err)
			}
		} else {
			fmt.Printf("warmed %d template entries from %s\n", n, *cacheFile)
		}
	}
	srv := &optimizeServer{
		reg:         reg,
		cache:       pc,
		parallel:    *parallel,
		revalRatio:  *revalRatio,
		buffer:      *bufferSize,
		defDeadline: *defDeadline,
		defMaxCalls: *defMaxCalls,
	}
	if *feedback {
		srv.feedback = &service.FeedbackPolicy{MinCalls: *minCalls, MinDrift: *minDrift}
	}
	obs := newObservability(*maxInFlight, *queueWait, *slowlogCap, *slowAbove, *traceSample)
	if *rescacheN != 0 {
		// The shared result cache serves single-process executions; in
		// coordinator mode the equivalent store lives on each worker
		// (mdqworker -rescache), where the service calls actually happen.
		store := rescache.New(rescache.Config{MaxEntries: *rescacheN, MaxBytes: *rescacheBytes, TTL: *rescacheTTL})
		store.Observer = rescache.MetricsObserver(obs.metrics)
		store.Bind(reg)
		srv.rescache = store
	}
	if *coalesce {
		srv.coalescer = &serve.Coalescer{}
	}
	if *workerList != "" {
		for _, base := range strings.Split(*workerList, ",") {
			if base = strings.TrimSpace(strings.TrimSuffix(base, "/")); base != "" {
				srv.workers = append(srv.workers, &dist.HTTPTransport{Base: base})
			}
		}
		if len(srv.workers) > 0 {
			// Fleet membership: the active probe loop (GET /dist/health
			// every -health-interval) plus passive feedback from every
			// coordinator RPC drive each worker's up/suspect/down state.
			// Down workers are skipped by dispatch — their search shards
			// and fragments fail over to live ones — and a single
			// successful probe or RPC brings a restarted worker back.
			member := dist.NewMembership(srv.workers)
			fleetGauges := func() {
				for state, n := range member.Counts() {
					obs.metrics.GaugeL("mdq_fleet_workers",
						"Fleet workers by membership state.", "state", state).Set(float64(n))
				}
			}
			// rediscover is filled in below, once the gossip coordinator
			// exists; a rejoining worker triggers it so the cached
			// hosting snapshot regains the worker's services (a worker
			// that was down at discovery carries an empty set and would
			// otherwise never host a fragment again).
			var rediscover atomic.Value
			member.OnChange = func(worker string, from, to dist.WorkerState) {
				log.Printf("fleet: worker %s %s -> %s", worker, from, to)
				obs.events.Publish("membership", map[string]string{
					"worker": worker, "from": from.String(), "to": to.String()})
				fleetGauges()
				if to == dist.StateUp {
					if f, ok := rediscover.Load().(func()); ok {
						go f()
					}
				}
			}
			fleetGauges()
			srv.membership = member
			if *healthIvl > 0 {
				stopHealth := member.HealthLoop(*healthIvl)
				defer stopHealth()
			}
			srv.retry = dist.RetryPolicy{MaxRetries: *maxRetries}
			if *maxRetries <= 0 {
				srv.retry.MaxRetries = -1
			}
			srv.onRetry = func(op, worker string) {
				name, help := "mdq_fragment_retries_total",
					"Fragment re-dispatches after transient worker failures."
				if op == dist.OpSearch {
					name, help = "mdq_search_retries_total",
						"Search-shard re-runs after transient worker failures."
				}
				obs.metrics.CounterL(name, help, "worker", worker).Inc()
				obs.events.Publish("retry", map[string]string{"op": op, "worker": worker})
			}
			// Epoch bumps — local ones and those absorbed back from
			// executing workers — fan out through the gossip loop so
			// every worker cache revalidates.
			gossip := &dist.Coordinator{Registry: reg, Workers: srv.workers, Membership: member}
			stop := gossip.GossipLoop(func(err error) { log.Printf("gossip: %v", err) })
			defer stop()
			if pc != nil {
				if n, err := gossip.WarmWorkers(context.Background(), pc); err != nil {
					log.Printf("warming workers: %v", err)
				} else if n > 0 {
					fmt.Printf("warmed workers with %d template entries\n", n)
				}
			}
			// The fleet's worker *list* is fixed for this server's
			// lifetime: discover each worker's hosted services once so
			// per-request coordinators don't re-ask on every execution.
			// A worker that is not up yet just means per-execution
			// fallback; the rediscover hook above refreshes the snapshot
			// when it rejoins.
			if hosts, err := gossip.DiscoverHosts(context.Background()); err != nil {
				log.Printf("discovering worker hosting (will retry per execution): %v", err)
			} else {
				srv.setHosts(hosts)
			}
			rediscover.Store(func() {
				if hosts, err := gossip.DiscoverHosts(context.Background()); err != nil {
					log.Printf("refreshing worker hosting after rejoin: %v", err)
				} else {
					srv.setHosts(hosts)
				}
			})
			if srv.feedback != nil {
				fmt.Printf("coordinator mode: execution traffic flows through the workers — " +
					"profile feedback runs under each worker's -feedback policy and returns via reverse gossip\n")
			}
		}
	}
	mux.HandleFunc("/optimize", obs.instrument("/optimize", srv.optimize))
	mux.HandleFunc("/query", obs.instrument("/query", srv.query))
	mux.HandleFunc("/optimize/stats", srv.cacheStats)
	mux.HandleFunc("/cache", srv.cacheReport)
	mux.HandleFunc("/stats", srv.serviceStats)
	mux.HandleFunc("/fleet", srv.fleet)
	mux.Handle("/metrics", obs.metrics.Handler())
	mux.Handle("/slowlog", obs.slowlog.Handler())
	mux.Handle("/trace", obs.traces.Handler())
	mux.Handle("/trace/", obs.traces.Handler())
	mux.Handle("/events", obs.events.Handler())
	if *pprofFlag {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Printf("pprof enabled on /debug/pprof/\n")
	}
	fmt.Printf("serving %s world (%v) on %s\n", *worldName, names, *addr)
	if len(srv.workers) > 0 {
		fmt.Printf("coordinator mode: sharding optimizations across %d workers\n", len(srv.workers))
	}
	fmt.Printf("endpoints: GET /services, GET /services/<name>/signature, POST /services/<name>/invoke,\n")
	fmt.Printf("           POST /optimize, POST /query, GET /cache, GET /stats, GET /optimize/stats,\n")
	fmt.Printf("           GET /metrics, GET /slowlog, GET /trace, GET /events, GET /fleet\n")

	hs := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case s := <-sig:
		fmt.Printf("received %v: draining in-flight requests\n", s)
	}

	// Graceful shutdown: stop admitting (new requests shed with 503),
	// drain what is already running, then flush pending feedback into
	// the profiles and persist the template cache — in that order, so
	// persisted entries carry the statistics the server actually
	// learned.
	obs.admission.StartDrain()
	sdCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(sdCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if err := obs.admission.Drain(sdCtx); err != nil {
		log.Printf("draining admissions: %v", err)
	}
	if n := reg.RefreshObserved(); n > 0 {
		fmt.Printf("flushed pending feedback into %d profile(s)\n", n)
	}
	if *cacheFile != "" && pc != nil {
		if err := pc.SaveFile(*cacheFile); err != nil {
			log.Fatalf("saving cache file: %v", err)
		}
		fmt.Printf("saved template cache to %s\n", *cacheFile)
	}
}

// optimizeServer answers optimization and templated-query requests
// against the world's registry with a shared adaptive plan cache. It
// is safe for concurrent requests: optimizers are built per call and
// the cache, registry and observers are internally synchronized.
type optimizeServer struct {
	reg        *service.Registry
	cache      *opt.PlanCache
	parallel   int
	revalRatio float64
	feedback   *service.FeedbackPolicy
	// workers, when non-empty, switch /optimize and /query into
	// coordinator mode: searches shard across these transports
	// instead of running in-process, and /query executions run as
	// worker-side fragments. In that mode the *workers'* feedback
	// policies observe the traffic (it flows through their services,
	// not ours); this server's feedback policy applies only to
	// single-process execution.
	workers []dist.Transport
	// hosts caches the fleet's service hosting (discovered at startup,
	// refreshed when a worker rejoins the fleet), so per-request
	// coordinators skip one /dist/info round-trip per worker per
	// execution. nil falls back to per-execution discovery, e.g. when
	// a worker was unreachable at startup. Guarded by hostsMu: the
	// membership change hook replaces it while queries read it.
	hosts   []map[string]bool
	hostsMu sync.RWMutex
	// membership is the fleet health view (coordinator mode only):
	// per-request coordinators consult it for dispatch and feed RPC
	// outcomes back; GET /fleet serves its snapshot.
	membership *dist.Membership
	// retry bounds re-attempts of transiently failed dispatches
	// (-max-retries); onRetry counts them into the metrics registry.
	retry   dist.RetryPolicy
	onRetry func(op, worker string)
	// buffer is the streaming executor's per-edge channel capacity
	// (-buffer; 0 = exec.DefaultBufferSize), applied to local runs and
	// to coordinator-side dataflows alike.
	buffer int
	// defDeadline / defMaxCalls are the server-wide budget defaults
	// applied when a request does not set deadline_ms / max_calls
	// (zero = unlimited).
	defDeadline time.Duration
	defMaxCalls int64
	// rescache, when non-nil, is the shared service-call result store
	// single-process executions run over (-rescache): invocations
	// repeated with identical inputs across requests are answered
	// locally, cost no budget charge and count no logical call, until
	// the service's statistics epoch moves.
	rescache exec.Cache
	// coalescer, when non-nil, deduplicates identical concurrent
	// /query requests (-coalesce): same canonical query, bindings and
	// knobs attach to one in-flight optimize+execute and share its
	// outcome, each waiter keeping its own budget, deadline and trace.
	coalescer *serve.Coalescer
}

// setHosts replaces the cached hosting snapshot.
func (s *optimizeServer) setHosts(hosts []map[string]bool) {
	s.hostsMu.Lock()
	s.hosts = hosts
	s.hostsMu.Unlock()
}

// snapshotHosts reads the cached hosting snapshot.
func (s *optimizeServer) snapshotHosts() []map[string]bool {
	s.hostsMu.RLock()
	defer s.hostsMu.RUnlock()
	return s.hosts
}

// coordinator assembles a per-request distributed coordinator.
func (s *optimizeServer) coordinator(m cost.Metric, mode card.CacheMode, k int) *dist.Coordinator {
	return &dist.Coordinator{
		Registry:        s.reg,
		Workers:         s.workers,
		Metric:          m,
		Mode:            mode,
		K:               k,
		RevalidateRatio: s.revalRatio,
		Hosts:           s.snapshotHosts(),
		BufferSize:      s.buffer,
		Membership:      s.membership,
		Retry:           s.retry,
		OnRetry:         s.onRetry,
	}
}

// fleetResponse is what GET /fleet returns in coordinator mode.
type fleetResponse struct {
	Workers []dist.WorkerHealth `json:"workers"`
}

// fleet reports the membership view: every worker's state, its
// consecutive-failure count, last probe time and last error.
func (s *optimizeServer) fleet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if s.membership == nil {
		writeError(w, http.StatusNotFound, "not in coordinator mode: no fleet")
		return
	}
	writeJSON(w, fleetResponse{Workers: s.membership.Snapshot()})
}

// apiError is the uniform JSON error envelope of every endpoint.
type apiError struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
	// BudgetExceeded marks a query aborted by its execution budget
	// (deadline_ms / max_calls), so clients can distinguish "too
	// expensive" from "broken".
	BudgetExceeded bool `json:"budget_exceeded,omitempty"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeErrorEnv(w, apiError{Error: fmt.Sprintf(format, args...), Status: status})
}

func writeErrorEnv(w http.ResponseWriter, env apiError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(env.Status)
	json.NewEncoder(w).Encode(env)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// optimizer assembles a per-request optimizer over the shared cache.
func (s *optimizeServer) optimizer(m cost.Metric, mode card.CacheMode, k int) *opt.Optimizer {
	return &opt.Optimizer{
		Metric:          m,
		Estimator:       card.Config{Mode: mode},
		K:               k,
		ChooseMethod:    s.reg.MethodChooser(),
		Parallelism:     s.parallel,
		Cache:           s.cache,
		CacheSalt:       s.reg.CacheSalt(),
		Epochs:          s.reg,
		RevalidateRatio: s.revalRatio,
	}
}

type optimizeRequest struct {
	Query  string `json:"query"`
	Metric string `json:"metric"` // default etm
	Cache  string `json:"cache"`  // none | one-call | optimal
	K      int    `json:"k"`
	// DeadlineMillis caps the request's wall-clock budget; past it the
	// search/execution aborts with a budget_exceeded error (0 = the
	// server's -default-deadline).
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// MaxCalls caps the logical service calls an execution may issue
	// (0 = the server's -default-max-calls).
	MaxCalls int64 `json:"max_calls,omitempty"`
	// Trace records a span trace of the optimization and returns it on
	// the response (also retained for GET /trace/{id}); explicit tracing
	// ignores the -trace-sample rate.
	Trace bool `json:"trace,omitempty"`
}

type optimizeResponse struct {
	Plan        string    `json:"plan"`
	Cost        float64   `json:"cost"`
	Metric      string    `json:"metric"`
	Feasible    bool      `json:"feasible"`
	Cached      bool      `json:"cached"`
	TemplateHit bool      `json:"template_hit,omitempty"`
	Revalidated bool      `json:"revalidated,omitempty"`
	Stats       opt.Stats `json:"stats"`
	// TraceID / Trace return the recorded span tree when the request
	// set "trace": true. The same dump stays retrievable at
	// GET /trace/{trace_id} until the ring store evicts it.
	TraceID string            `json:"trace_id,omitempty"`
	Trace   []*trace.TreeNode `json:"trace,omitempty"`
}

// knobs decodes the metric/cache/k triple shared by /optimize and
// /query.
func knobs(metric, cacheName string, k int) (cost.Metric, card.CacheMode, int, error) {
	if metric == "" {
		metric = "etm"
	}
	m, ok := cost.ByName(metric)
	if !ok {
		return nil, 0, 0, fmt.Errorf("unknown metric %q", metric)
	}
	mode, ok := card.ModeByName(cacheName)
	if !ok {
		return nil, 0, 0, fmt.Errorf("unknown cache mode %q", cacheName)
	}
	if k == 0 {
		k = 10
	}
	return m, mode, k, nil
}

func (s *optimizeServer) optimize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req optimizeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	m, mode, k, err := knobs(req.Metric, req.Cache, req.K)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	q, err := cq.Parse(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parsing query: %v", err)
		return
	}
	sch, err := s.reg.Schema()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "assembling schema: %v", err)
		return
	}
	if err := q.Resolve(sch); err != nil {
		writeError(w, http.StatusBadRequest, "resolving query: %v", err)
		return
	}
	ctx := r.Context()
	st := statsFrom(ctx)
	st.Query = req.Query
	if req.Trace {
		ctx = forceTrace(ctx, st, "/optimize")
	}
	budget := requestBudget(req.DeadlineMillis, req.MaxCalls, s.defDeadline, s.defMaxCalls)
	if budget != nil {
		var cancel context.CancelFunc
		ctx, cancel = budget.Context(ctx)
		defer cancel()
	}
	var res *opt.Result
	optStart := time.Now()
	osp := trace.From(ctx).Child("optimize")
	if len(s.workers) > 0 {
		res, err = s.coordinator(m, mode, k).Optimize(trace.With(ctx, osp), q)
	} else {
		o := s.optimizer(m, mode, k)
		o.Budget = budget
		o.Span = osp
		res, err = o.Optimize(q)
	}
	osp.End()
	st.Optimize = time.Since(optStart)
	if err != nil {
		st.Err = budgetAware(budget, err)
		writeQueryError(w, http.StatusUnprocessableEntity, st.Err, "optimizing")
		return
	}
	st.CacheClass = cacheClass(res.TemplateHit, res.Revalidated, res.Cached)
	resp := optimizeResponse{
		Plan:     res.Best.Describe(),
		Cost:     res.Cost,
		Metric:   m.Name(),
		Feasible: res.Feasible,
		Cached:   res.Cached,
		Stats:    res.Stats,
	}
	if req.Trace && st.Trace != nil {
		st.TraceRoot.End()
		resp.TraceID = st.Trace.ID()
		resp.Trace = trace.Tree(st.Trace.Spans())
	}
	writeJSON(w, resp)
}

type queryRequest struct {
	Template string         `json:"template"`
	Bindings map[string]any `json:"bindings"`
	Metric   string         `json:"metric"`
	Cache    string         `json:"cache"`
	K        int            `json:"k"`
	// Execute runs the optimized plan and returns the answers;
	// defaults to true (omit or set false for optimize-only).
	Execute *bool `json:"execute"`
	// DeadlineMillis / MaxCalls bound the request's execution budget,
	// as on /optimize.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	MaxCalls       int64 `json:"max_calls,omitempty"`
	// Trace records a full span trace of this request — optimizer
	// phases, fragment dispatches, per-plan-node estimate-vs-actual —
	// and returns it on the response (also retained for GET
	// /trace/{id}). Explicit tracing ignores the -trace-sample rate.
	Trace bool `json:"trace,omitempty"`
}

type queryResponse struct {
	optimizeResponse
	Head    []string         `json:"head,omitempty"`
	Rows    [][]string       `json:"rows,omitempty"`
	Calls   map[string]int64 `json:"calls,omitempty"`
	Elapsed float64          `json:"elapsed_seconds,omitempty"`
	// FirstRowMillis is the time from the start of plan execution to
	// its first result row (streaming runtime; absent when the query
	// produced no rows).
	FirstRowMillis float64           `json:"first_row_ms,omitempty"`
	Epochs         map[string]uint64 `json:"epochs,omitempty"`
}

// bindValue converts a JSON binding into a schema value: numbers map
// to numeric values, strings that parse as dates become dates, and
// everything else textual stays a string.
func bindValue(v any) (schema.Value, error) {
	switch x := v.(type) {
	case float64:
		return schema.N(x), nil
	case string:
		for _, layout := range []string{"2006/01/02", "2006-01-02"} {
			if t, err := time.Parse(layout, x); err == nil {
				return schema.D(t.Year(), t.Month(), t.Day()), nil
			}
		}
		return schema.S(x), nil
	default:
		return schema.Value{}, fmt.Errorf("unsupported binding type %T", v)
	}
}

func (s *optimizeServer) query(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	m, mode, k, err := knobs(req.Metric, req.Cache, req.K)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tpl, err := cq.ParseTemplate(req.Template)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parsing template: %v", err)
		return
	}
	values := make(map[string]schema.Value, len(req.Bindings))
	for name, raw := range req.Bindings {
		v, err := bindValue(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "binding $%s: %v", name, err)
			return
		}
		values[name] = v
	}
	q, err := tpl.Bind(values)
	if err != nil {
		writeError(w, http.StatusBadRequest, "binding template: %v", err)
		return
	}
	sch, err := s.reg.Schema()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "assembling schema: %v", err)
		return
	}
	if err := q.Resolve(sch); err != nil {
		writeError(w, http.StatusBadRequest, "resolving query: %v", err)
		return
	}
	ctx := r.Context()
	st := statsFrom(ctx)
	st.Query = req.Template
	if req.Trace {
		ctx = forceTrace(ctx, st, "/query")
	}
	budget := requestBudget(req.DeadlineMillis, req.MaxCalls, s.defDeadline, s.defMaxCalls)
	if budget != nil {
		var cancel context.CancelFunc
		ctx, cancel = budget.Context(ctx)
		defer cancel()
	}
	execute := req.Execute == nil || *req.Execute
	var resp *queryResponse
	if s.coalescer != nil && execute {
		// Identical concurrent requests — same canonical query (query
		// shape + bindings + statistics identity) and knobs — attach to
		// one in-flight optimize+execute. The flight runs under the
		// leader's context and budget; a waiter whose own budget trips
		// detaches with its own 504 while the flight continues.
		csp := trace.From(ctx).Child("coalesce")
		v, shared, cerr := s.coalescer.Do(ctx, coalesceKey(q, m, mode, k), func() (any, error) {
			return s.runQuery(ctx, q, m, mode, k, budget, true, st)
		})
		csp.Set("coalesced", strconv.FormatBool(shared))
		csp.End()
		st.Coalesced = shared
		if cerr != nil {
			st.Err = cerr
			writeQueryFailure(w, http.StatusUnprocessableEntity, cerr)
			return
		}
		// Shallow-copy before attaching per-request trace fields: the
		// underlying response is shared with every coalesced caller.
		cp := *(v.(*queryResponse))
		resp = &cp
		if shared {
			// A waiter reports the shared outcome under its own
			// accounting: the rows exist, but no search ran and no
			// service calls were issued on this request's behalf.
			st.Rows = len(resp.Rows)
			st.CacheClass = "coalesced"
		}
	} else {
		resp, err = s.runQuery(ctx, q, m, mode, k, budget, execute, st)
		if err != nil {
			st.Err = err
			writeQueryFailure(w, http.StatusUnprocessableEntity, err)
			return
		}
	}
	if req.Trace && st.Trace != nil {
		st.TraceRoot.End()
		resp.TraceID = st.Trace.ID()
		resp.Trace = trace.Tree(st.Trace.Spans())
		w.Header().Set("X-Mdq-Trace-Id", resp.TraceID)
	}
	writeJSON(w, resp)
}

// coalesceKey identifies the shareable unit of /query work: the
// resolved query's canonical key (structure, bindings and statistics
// identity) plus every knob that changes the outcome. Budget,
// deadline and trace flags stay out — they are per-caller.
func coalesceKey(q *cq.Query, m cost.Metric, mode card.CacheMode, k int) string {
	return q.CanonicalKey() + "\x00" + m.Name() + "\x00" + strconv.Itoa(int(mode)) + "\x00" + strconv.Itoa(k)
}

// runQuery is the shared core of /query — one optimization through
// the template cache plus, when execute is set, one plan execution.
// It is the unit of work a coalesced flight runs once on behalf of
// every attached request; st is the leader's accounting slot. Errors
// return phase-prefixed ("optimizing:"/"executing:") and re-typed as
// the budget violation when the leader's budget tripped.
func (s *optimizeServer) runQuery(ctx context.Context, q *cq.Query, m cost.Metric, mode card.CacheMode, k int, budget *serve.Budget, execute bool, st *reqStats) (*queryResponse, error) {
	var res *opt.Result
	var err error
	optStart := time.Now()
	osp := trace.From(ctx).Child("optimize")
	if len(s.workers) > 0 {
		res, err = s.coordinator(m, mode, k).OptimizeTemplate(trace.With(ctx, osp), q)
	} else {
		o := s.optimizer(m, mode, k)
		o.Budget = budget
		o.Span = osp
		res, err = o.OptimizeTemplate(q)
	}
	osp.End()
	st.Optimize = time.Since(optStart)
	if err != nil {
		return nil, fmt.Errorf("optimizing: %w", budgetAware(budget, err))
	}
	st.CacheClass = cacheClass(res.TemplateHit, res.Revalidated, res.Cached)
	resp := &queryResponse{optimizeResponse: optimizeResponse{
		Plan:        res.Best.Describe(),
		Cost:        res.Cost,
		Metric:      m.Name(),
		Feasible:    res.Feasible,
		Cached:      res.Cached,
		TemplateHit: res.TemplateHit,
		Revalidated: res.Revalidated,
		Stats:       res.Stats,
	}}
	if execute {
		var out *exec.Result
		execStart := time.Now()
		esp := trace.From(ctx).Child("execute")
		if len(s.workers) > 0 {
			// Coordinator mode executes through the fleet: the plan is
			// cut into fragments that run on the workers hosting their
			// services, tuples stream back, and the joins happen here.
			// Worker-side feedback bumps return via the reverse gossip
			// path and are re-broadcast by the gossip loop.
			out, err = s.coordinator(m, mode, k).ExecutePlan(trace.With(ctx, esp), res.Best)
		} else {
			runner := &exec.Runner{Registry: s.reg, Cache: mode, K: k, Feedback: s.feedback, BufferSize: s.buffer, ResultCache: s.rescache}
			out, err = runner.Run(trace.With(ctx, esp), res.Best)
		}
		esp.End()
		st.Execute = time.Since(execStart)
		if err != nil {
			return nil, fmt.Errorf("executing: %w", budgetAware(budget, err))
		}
		st.FirstRow = out.FirstRow
		for _, v := range out.Head {
			resp.Head = append(resp.Head, string(v))
		}
		for _, row := range out.Rows {
			resp.Rows = append(resp.Rows, renderRow(row))
		}
		for _, v := range out.Stats.Calls {
			st.Calls += v
		}
		st.Rows = len(resp.Rows)
		resp.Calls = out.Stats.Calls
		resp.Elapsed = out.Elapsed.Seconds()
		resp.FirstRowMillis = float64(out.FirstRow) / float64(time.Millisecond)
		resp.Epochs = s.reg.Epochs()
	}
	return resp, nil
}

func renderRow(row []schema.Value) []string {
	out := make([]string, len(row))
	for i, v := range row {
		switch v.Kind {
		case schema.StringValue:
			out[i] = v.Str
		case schema.DateValue:
			out[i] = v.Time().Format("2006-01-02")
		default:
			out[i] = strings.TrimSuffix(strconv.FormatFloat(v.Num, 'f', 2, 64), ".00")
		}
	}
	return out
}

func (s *optimizeServer) cacheStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.cache.Stats())
}

type cacheReport struct {
	Stats   opt.CacheStats  `json:"stats"`
	Entries []opt.EntryInfo `json:"entries"`
}

func (s *optimizeServer) cacheReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, cacheReport{Stats: s.cache.Stats(), Entries: s.cache.Entries()})
}

type serviceReport struct {
	Epoch        uint64  `json:"epoch"`
	ERSPI        float64 `json:"erspi"`
	ResponseSecs float64 `json:"response_seconds"`
	ChunkSize    int     `json:"chunk_size"`
	// Observation window since the last refresh.
	ObservedCalls   int64 `json:"observed_calls"`
	ObservedFetches int64 `json:"observed_fetches"`
	ObservedRows    int64 `json:"observed_rows"`
	// Attributes summarizes the per-attribute value distributions
	// (profiled at registration or learned from traffic); attributes
	// without statistics are omitted.
	Attributes map[string]attrReport `json:"attributes,omitempty"`
}

// attrReport summarizes one attribute's value distribution for the
// stats endpoint: overall shape plus the most common values.
type attrReport struct {
	Rows     float64     `json:"rows"`
	Distinct float64     `json:"distinct"`
	Buckets  int         `json:"buckets"`
	TopMCVs  []mcvReport `json:"top_mcvs,omitempty"`
}

type mcvReport struct {
	Value string  `json:"value"`
	Frac  float64 `json:"frac"`
}

func attrReports(sig *schema.Signature) map[string]attrReport {
	var out map[string]attrReport
	st := sig.Statistics()
	for i, attr := range sig.Attrs {
		d := st.Distribution(i)
		if d.Empty() {
			continue
		}
		rep := attrReport{Rows: d.Total, Distinct: d.Distinct, Buckets: len(d.Buckets)}
		for j, m := range d.MCVs {
			if j == 3 {
				break
			}
			rep.TopMCVs = append(rep.TopMCVs, mcvReport{Value: m.Value.String(), Frac: m.Frac})
		}
		if out == nil {
			out = map[string]attrReport{}
		}
		name := attr.Name
		if name == "" {
			name = fmt.Sprintf("arg%d", i)
		}
		out[name] = rep
	}
	return out
}

func (s *optimizeServer) serviceStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	out := map[string]serviceReport{}
	for _, svc := range s.reg.Services() {
		sig := svc.Signature()
		st := sig.Statistics()
		rep := serviceReport{
			Epoch:        s.reg.Epoch(sig.Name),
			ERSPI:        st.ERSPI,
			ResponseSecs: st.ResponseTime.Seconds(),
			ChunkSize:    st.ChunkSize,
			Attributes:   attrReports(sig),
		}
		if ob, ok := s.reg.Observer(sig.Name); ok {
			rep.ObservedCalls, rep.ObservedFetches, rep.ObservedRows = ob.Observations()
		}
		out[sig.Name] = rep
	}
	writeJSON(w, out)
}
