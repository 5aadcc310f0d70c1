// Command mdqworker runs one distributed worker: a simulated deep-web
// world served over HTTP (like mdqserve) plus the internal/dist
// worker protocol, so an mdqserve coordinator (-workers) can shard
// branch-and-bound searches across a fleet of these processes, share
// the incumbent bound mid-search, gossip statistics-epoch bumps into
// the local plan cache, warm it with serialized template skeletons —
// and, with -execute (the default), run plan *fragments* near this
// worker's services, streaming the produced tuples back to the
// coordinator.
//
// Usage:
//
//	mdqworker [-addr :8090] [-world travel|bio|mashup|zipf]
//	          [-parallel 1] [-plancache 128] [-cachettl 0] [-cachebytes 0]
//	          [-cache-file worker-cache.json] [-scale 0]
//	          [-execute] [-buffer 128] [-feedback] [-feedback-min-calls 4]
//	          [-feedback-min-drift 0.1] [-rescache 4096] [-rescache-bytes N]
//	          [-rescache-ttl 0] [-pprof]
//
// -rescache bounds the shared service-call result cache consulted by
// fragment executions (0 disables it): invocations repeated with
// identical input bindings — across fragments, queries and requests —
// are answered locally until the service's statistics epoch moves
// (local feedback refresh or gossiped remote bump), which drops its
// entries. Hit/miss/evict counters surface on /metrics as
// mdq_result_cache_events_total.
//
// -pprof mounts net/http/pprof under /debug/pprof/ (off by default;
// enable only on trusted networks).
//
// Fragment and shard-search requests carrying a trace header record
// their spans into a worker-local trace and piggyback them on the
// result frame, so the coordinator can splice them into the query's
// span tree.
//
// Endpoints:
//
//	POST /dist/search     one shard search (query text + shard + bound)
//	POST /dist/sync       incumbent bound exchange for a running search
//	POST /dist/gossip     statistics-epoch bumps → plan cache invalidation
//	POST /dist/execute    one plan fragment → streamed tuple batches (ndjson)
//	GET  /dist/templates  export serialized template cache entries
//	POST /dist/templates  import serialized template cache entries
//	GET  /dist/info       services, epochs, cache counters
//	GET  /dist/health     liveness probe (the coordinator's membership check)
//	GET  /services, /services/<name>/…   the world's services (httpwrap)
//
// With -execute, fragment executions run under this worker's own
// feedback policy (-feedback*): traffic that flowed through the local
// services refreshes their profiles and bumps worker-local statistics
// epochs, which fragment results piggyback back to the coordinator —
// the reverse gossip path that converges every template cache in the
// fleet.
//
// With -cache-file the template cache is loaded at startup (entries
// whose distribution fingerprints disagree with the local statistics
// enter stale and revalidate on first use) and saved on SIGINT or
// SIGTERM; pending feedback observations are flushed into the
// profiles first, so persisted entries carry the statistics they were
// priced under.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"mdq/internal/dist"
	"mdq/internal/exec"
	"mdq/internal/httpwrap"
	"mdq/internal/opt"
	"mdq/internal/rescache"
	"mdq/internal/serve"
	"mdq/internal/server"
	"mdq/internal/service"
	"mdq/internal/simweb"
)

func main() {
	var (
		addr          = flag.String("addr", ":8090", "listen address")
		worldName     = flag.String("world", "travel", "built-in world: travel, bio, mashup or zipf")
		scale         = flag.Float64("scale", 0, "sleep scale for simulated latencies (0 = report only)")
		parallel      = flag.Int("parallel", opt.AutoParallelism, "in-process search workers per shard (-1 = one per CPU)")
		planCache     = flag.Int("plancache", 128, "plan cache capacity in entries")
		cacheTTL      = flag.Duration("cachettl", 0, "plan cache entry TTL (0 = no expiry)")
		cacheBytes    = flag.Int64("cachebytes", 0, "approximate plan cache byte budget (0 = unlimited)")
		cacheFile     = flag.String("cache-file", "", "load the template cache from this file at start and save it on SIGINT/SIGTERM")
		execute       = flag.Bool("execute", true, "serve fragment execution (POST /dist/execute)")
		bufferSize    = flag.Int("buffer", exec.DefaultBufferSize, "fragment executor edge buffer in tuples (larger = fewer stalls, more memory; smaller = tighter memory, earlier backpressure)")
		rescacheN     = flag.Int("rescache", rescache.DefaultMaxEntries, "shared service-call result cache capacity in entries (0 disables)")
		rescacheBytes = flag.Int64("rescache-bytes", rescache.DefaultMaxBytes, "approximate result cache byte budget (<0 = unlimited)")
		rescacheTTL   = flag.Duration("rescache-ttl", 0, "result cache entry TTL (0 = no expiry; epochs still invalidate)")

		feedback = flag.Bool("feedback", true, "fold fragment-execution traffic back into local service profiles")
		minCalls = flag.Int64("feedback-min-calls", 4, "observed calls required before a profile refresh")
		minDrift = flag.Float64("feedback-min-drift", 0.1, "relative statistics drift required before a refresh")

		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "max time to drain in-flight requests on shutdown")
		pprofFlag    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default)")
	)
	flag.Parse()

	reg, _, err := simweb.World(*worldName, simweb.TravelOptions{})
	if err != nil {
		log.Fatal(err)
	}
	reg.ObserveAll()

	pc := opt.NewPlanCacheWith(opt.Policy{Capacity: *planCache, TTL: *cacheTTL, MaxBytes: *cacheBytes})
	worker := dist.NewWorker(reg, pc)
	worker.Parallelism = *parallel
	worker.ExecuteDisabled = !*execute
	worker.BufferSize = *bufferSize
	if *feedback {
		worker.Feedback = &service.FeedbackPolicy{MinCalls: *minCalls, MinDrift: *minDrift}
	}

	mux, names := httpwrap.ServeRegistry(reg, httpwrap.HandlerOptions{SleepScale: *scale})
	proc := &server.Process{
		Addr:         *addr,
		Handler:      mux,
		DrainTimeout: *drainTimeout,
		Registry:     reg,
		PlanCache:    pc,
		CacheFile:    *cacheFile,
	}
	if err := proc.LoadCache(); err != nil {
		log.Fatal(err)
	}

	metrics := serve.NewMetrics()
	if *rescacheN != 0 {
		store := rescache.New(rescache.Config{MaxEntries: *rescacheN, MaxBytes: *rescacheBytes, TTL: *rescacheTTL})
		store.Observer = rescache.MetricsObserver(metrics)
		store.Bind(reg)
		worker.ResultCache = store
	}
	mux.Handle("/dist/", instrumentWorker(metrics, worker.Handler()))
	mux.Handle("/metrics", metrics.Handler())
	if *pprofFlag {
		server.MountPprof(mux)
	}
	fmt.Printf("mdqworker: %s world (%v) on %s (execute=%v)\n", *worldName, names, *addr, *execute)
	fmt.Printf("endpoints: POST /dist/search, /dist/sync, /dist/gossip, /dist/execute; GET|POST /dist/templates; GET /dist/info; GET /dist/health; GET /metrics\n")

	if err := proc.Run(); err != nil {
		log.Fatal(err)
	}
}

// instrumentWorker counts and times the /dist protocol endpoints into
// the worker's metrics registry.
func instrumentWorker(m *serve.Metrics, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inflight := m.Gauge("mdq_worker_inflight_requests", "Protocol requests currently executing.")
		inflight.Add(1)
		defer inflight.Add(-1)
		sw := &server.CountingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r)
		if sw.Status == 0 {
			sw.Status = http.StatusOK
		}
		m.CounterL("mdq_worker_requests_total",
			"Protocol requests by endpoint and status code.",
			"endpoint", r.URL.Path, "code", strconv.Itoa(sw.Status)).Inc()
		m.HistogramL("mdq_worker_request_seconds",
			"Protocol request latency.", nil, "endpoint", r.URL.Path).Observe(time.Since(start).Seconds())
	})
}
