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
// The flags it shares with mdqserve are declared once (server.Node)
// and mean the same on both: -plancache 0 disables the plan cache, so
// template probes always miss and every shard search runs in full.
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
	"mdq/internal/rescache"
	"mdq/internal/serve"
	"mdq/internal/server"
	"mdq/internal/simweb"
)

func main() {
	var node server.Node
	node.RegisterFlags(flag.CommandLine, ":8090")
	execute := flag.Bool("execute", true, "serve fragment execution (POST /dist/execute)")
	flag.Parse()

	if err := node.Open(simweb.TravelOptions{}); err != nil {
		log.Fatal(err)
	}
	worker := dist.NewWorker(node.Registry, node.PlanCache)
	worker.Parallelism = node.Parallelism
	worker.ExecuteDisabled = !*execute
	worker.BufferSize = node.BufferSize
	worker.Feedback = node.Learn()

	metrics := serve.NewMetrics()
	if store := node.ResultStore(); store != nil {
		store.Observer = rescache.MetricsObserver(metrics)
		store.Bind(node.Registry)
		worker.ResultCache = store
	}
	node.Mux.Handle("/dist/", instrumentWorker(metrics, worker.Handler()))
	node.Mux.Handle("/metrics", metrics.Handler())
	fmt.Printf("mdqworker: %s world (%v) on %s (execute=%v)\n", node.World, node.Services, node.Addr, *execute)
	fmt.Printf("endpoints: POST /dist/search, /dist/sync, /dist/gossip, /dist/execute; GET|POST /dist/templates; GET /dist/info; GET /dist/health; GET /metrics\n")

	node.Handler = node.Mux
	if err := node.Run(); err != nil {
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
