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
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"mdq/internal/dist"
	"mdq/internal/exec"
	"mdq/internal/httpwrap"
	"mdq/internal/opt"
	"mdq/internal/rescache"
	"mdq/internal/server"
	"mdq/internal/service"
	"mdq/internal/simweb"
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

	engine := &server.Engine{
		Registry:        reg,
		Parallelism:     *parallel,
		RevalidateRatio: *revalRatio,
		BufferSize:      *bufferSize,
	}
	if *planCache > 0 {
		engine.Cache = opt.NewPlanCacheWith(opt.Policy{Capacity: *planCache, TTL: *cacheTTL, MaxBytes: *cacheBytes})
		reg.SubscribeEpochs(engine.Cache, engine.Cache.InvalidateService)
	}
	if *feedback {
		engine.Feedback = &service.FeedbackPolicy{MinCalls: *minCalls, MinDrift: *minDrift}
	}
	for _, base := range strings.Split(*workerList, ",") {
		if base = strings.TrimSpace(strings.TrimSuffix(base, "/")); base != "" {
			engine.Workers = append(engine.Workers, &dist.HTTPTransport{Base: base})
		}
	}
	proc := &server.Process{
		Addr:         *addr,
		DrainTimeout: *drainTimeout,
		Registry:     reg,
		PlanCache:    engine.Cache,
		CacheFile:    *cacheFile,
	}
	if err := proc.LoadCache(); err != nil {
		log.Fatal(err)
	}

	cfg := server.Config{
		Engine:          engine,
		Coalesce:        *coalesce,
		HealthInterval:  *healthIvl,
		MaxRetries:      *maxRetries,
		MaxInFlight:     *maxInFlight,
		QueueWait:       *queueWait,
		SlowlogCap:      *slowlogCap,
		SlowAbove:       *slowAbove,
		DefaultDeadline: *defDeadline,
		DefaultMaxCalls: *defMaxCalls,
		TraceSample:     *traceSample,
	}
	if *rescacheN != 0 {
		// The shared result cache serves single-process executions; in
		// coordinator mode the equivalent store lives on each worker
		// (mdqworker -rescache), where the service calls actually happen.
		cfg.ResultCache = rescache.New(rescache.Config{MaxEntries: *rescacheN, MaxBytes: *rescacheBytes, TTL: *rescacheTTL})
	}
	mux, names := httpwrap.ServeRegistry(reg, httpwrap.HandlerOptions{SleepScale: *scale})
	srv := server.New(mux, cfg)
	defer srv.Close()
	if *pprofFlag {
		server.MountPprof(mux)
		fmt.Printf("pprof enabled on /debug/pprof/\n")
	}
	fmt.Printf("serving %s world (%v) on %s\n", *worldName, names, *addr)
	fmt.Printf("endpoints: GET /services, GET /services/<name>/signature, POST /services/<name>/invoke,\n")
	fmt.Printf("           POST /optimize, POST /query, GET /cache, GET /stats, GET /optimize/stats,\n")
	fmt.Printf("           GET /metrics, GET /slowlog, GET /trace, GET /events, GET /fleet\n")

	proc.Handler = srv
	proc.Admission = srv.Admission()
	if err := proc.Run(); err != nil {
		log.Fatal(err)
	}
}
