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

	"mdq/internal/dist"
	"mdq/internal/opt"
	"mdq/internal/server"
	"mdq/internal/simweb"
)

func main() {
	var node server.Node
	node.RegisterFlags(flag.CommandLine, ":8080")
	engine := &server.Engine{}
	cfg := server.Config{Engine: engine}
	cfg.RegisterFlags(flag.CommandLine)
	jitter := flag.Float64("jitter", 0, "log-normal latency jitter sigma")
	flag.Float64Var(&engine.RevalidateRatio, "revalidate-ratio", opt.DefaultRevalidateRatio, "template-cache cost divergence triggering a fresh search")
	workerList := flag.String("workers", "", "comma-separated mdqworker base URLs; enables coordinator mode")
	flag.Parse()

	if err := node.Open(simweb.TravelOptions{JitterSigma: *jitter}); err != nil {
		log.Fatal(err)
	}
	engine.Registry = node.Registry
	engine.Parallelism = node.Parallelism
	engine.BufferSize = node.BufferSize
	engine.Cache = node.PlanCache
	engine.Feedback = node.Learn()
	for _, base := range strings.Split(*workerList, ",") {
		if base = strings.TrimSpace(strings.TrimSuffix(base, "/")); base != "" {
			engine.Workers = append(engine.Workers, &dist.HTTPTransport{Base: base})
		}
	}
	// The shared result cache serves single-process executions; in
	// coordinator mode the equivalent store lives on each worker
	// (mdqworker -rescache), where the service calls actually happen.
	cfg.ResultCache = node.ResultStore()
	srv := server.New(node.Mux, cfg)
	defer srv.Close()
	fmt.Printf("serving %s world (%v) on %s\n", node.World, node.Services, node.Addr)
	fmt.Printf("endpoints: GET /services, GET /services/<name>/signature, POST /services/<name>/invoke,\n")
	fmt.Printf("           POST /optimize, POST /query, GET /cache, GET /stats, GET /optimize/stats,\n")
	fmt.Printf("           GET /metrics, GET /slowlog, GET /trace, GET /events, GET /fleet\n")

	node.Handler = srv
	node.Admission = srv.Admission()
	if err := node.Run(); err != nil {
		log.Fatal(err)
	}
}
