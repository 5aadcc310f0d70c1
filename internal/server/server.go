package server

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"mdq/internal/dist"
	"mdq/internal/rescache"
	"mdq/internal/serve"
)

// Config is what New builds a serving surface from. RegisterFlags
// binds mdqserve's serving flags to its fields; Engine and ResultCache
// are built from the flags Node declares.
type Config struct {
	// Engine answers the requests. New completes its fleet fields
	// (Membership, Retry, OnRetry) and ResultCache.
	Engine *Engine
	// ResultCache, when non-nil, becomes the engine's shared
	// service-call result store, bound to the registry's epoch feed and
	// reporting into /metrics (-rescache*).
	ResultCache *rescache.Store
	// Coalesce merges identical concurrent /query requests onto one
	// optimize+execute (-coalesce).
	Coalesce bool
	// HealthInterval is the worker probe period of a fleet (0 disables
	// active probing); MaxRetries bounds re-attempts of a transiently
	// failed worker dispatch (<= 0 disables retries).
	HealthInterval time.Duration
	MaxRetries     int
	// MaxInFlight / QueueWait configure admission control.
	MaxInFlight int
	QueueWait   time.Duration
	// SlowlogCap / SlowAbove configure the slow-query log.
	SlowlogCap int
	SlowAbove  time.Duration
	// DefaultDeadline / DefaultMaxCalls are the budget defaults applied
	// when a request sets no deadline_ms / max_calls (zero = unlimited).
	DefaultDeadline time.Duration
	DefaultMaxCalls int64
	// TraceSample is the fraction of requests traced unasked.
	TraceSample float64
}

// RegisterFlags declares mdqserve's serving flags on fs, each bound
// to the field it sets.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.BoolVar(&c.Coalesce, "coalesce", true, "coalesce identical concurrent /query requests onto one optimize+execute")
	fs.DurationVar(&c.HealthInterval, "health-interval", dist.DefaultHealthInterval, "worker health-probe period in coordinator mode (0 disables active probing; passive RPC feedback still applies)")
	fs.IntVar(&c.MaxRetries, "max-retries", dist.DefaultMaxRetries, "re-attempts for a transiently failed worker dispatch (0 disables retries)")
	fs.IntVar(&c.MaxInFlight, "max-inflight", 64, "max concurrent /optimize and /query requests (0 = unlimited)")
	fs.DurationVar(&c.QueueWait, "queue-wait", time.Second, "max time a request waits for an in-flight slot before 429")
	fs.IntVar(&c.SlowlogCap, "slowlog", 128, "slow-query log capacity (GET /slowlog)")
	fs.DurationVar(&c.SlowAbove, "slow-above", 0, "only log requests at least this slow (0 = log all)")
	fs.DurationVar(&c.DefaultDeadline, "default-deadline", 0, "default per-query deadline when requests set no deadline_ms (0 = none)")
	fs.Int64Var(&c.DefaultMaxCalls, "default-max-calls", 0, "default per-query service-call cap when requests set no max_calls (0 = none)")
	fs.Float64Var(&c.TraceSample, "trace-sample", 0, "fraction of requests to trace unasked (0 = only explicit or slowlog-qualifying; 1 = all)")
}

// Server is the optimization and query surface of one serving
// process: POST /optimize and /query behind admission control and
// per-request accounting, plus the cache, statistics, fleet, metrics,
// slowlog, trace and event reports. It is safe for concurrent
// requests.
type Server struct {
	engine *Engine
	obs    *observability
	mux    *http.ServeMux
	// defDeadline / defMaxCalls are the server-wide budget defaults.
	defDeadline time.Duration
	defMaxCalls int64
	// coalescer, when non-nil, deduplicates identical concurrent /query
	// requests: same canonical query, bindings and knobs attach to one
	// in-flight optimize+execute and share its outcome, each waiter
	// keeping its own budget, deadline and trace.
	coalescer *serve.Coalescer
	stopFleet func()
}

// New mounts the serving endpoints on mux (which may already carry
// the world's /services) and returns the server; with
// cfg.Engine.Workers set it also brings the fleet up. Call Close when
// done.
func New(mux *http.ServeMux, cfg Config) *Server {
	e := cfg.Engine
	obs := newObservability(cfg.MaxInFlight, cfg.QueueWait, cfg.SlowlogCap, cfg.SlowAbove, cfg.TraceSample)
	s := &Server{
		engine:      e,
		obs:         obs,
		mux:         mux,
		defDeadline: cfg.DefaultDeadline,
		defMaxCalls: cfg.DefaultMaxCalls,
		stopFleet:   func() {},
	}
	if cfg.ResultCache != nil {
		cfg.ResultCache.Observer = rescache.MetricsObserver(obs.metrics)
		cfg.ResultCache.Bind(e.Registry)
		e.ResultCache = cfg.ResultCache
	}
	if cfg.Coalesce {
		s.coalescer = &serve.Coalescer{}
	}
	if len(e.Workers) > 0 {
		s.attachFleet(cfg)
	}
	mux.HandleFunc("/optimize", obs.instrument("/optimize", s.optimize))
	mux.HandleFunc("/query", obs.instrument("/query", s.query))
	mux.HandleFunc("/optimize/stats", s.cacheStats)
	mux.HandleFunc("/cache", s.cacheReport)
	mux.HandleFunc("/stats", s.serviceStats)
	mux.HandleFunc("/fleet", s.fleet)
	mux.Handle("/metrics", obs.metrics.Handler())
	mux.Handle("/slowlog", obs.slowlog.Handler())
	mux.Handle("/trace", obs.traces.Handler())
	mux.Handle("/trace/", obs.traces.Handler())
	mux.Handle("/events", obs.events.Handler())
	return s
}

// attachFleet wires the fleet into the serving layer and starts it:
// the membership view — the active probe loop plus passive feedback
// from every coordinator RPC drive each worker's up/suspect/down
// state; down workers are skipped by dispatch, their search shards and
// fragments fail over to live ones, and a single successful probe or
// RPC brings a restarted worker back — reports its transitions as
// log lines, audit events and gauges, and retries are counted.
func (s *Server) attachFleet(cfg Config) {
	e, obs := s.engine, s.obs
	fmt.Printf("coordinator mode: sharding optimizations across %d workers\n", len(e.Workers))
	member := dist.NewMembership(e.Workers)
	fleetGauges := func() {
		for state, n := range member.Counts() {
			obs.metrics.GaugeL("mdq_fleet_workers",
				"Fleet workers by membership state.", "state", state).Set(float64(n))
		}
	}
	member.OnChange = func(worker string, from, to dist.WorkerState) {
		log.Printf("fleet: worker %s %s -> %s", worker, from, to)
		obs.events.Publish("membership", map[string]string{
			"worker": worker, "from": from.String(), "to": to.String()})
		fleetGauges()
		if to == dist.StateUp {
			go e.refreshHosts("refreshing worker hosting after rejoin")
		}
	}
	fleetGauges()
	e.Membership = member
	e.Retry = dist.RetryPolicy{MaxRetries: cfg.MaxRetries}
	if cfg.MaxRetries <= 0 {
		e.Retry.MaxRetries = -1
	}
	e.OnRetry = func(op, worker string) {
		name, help := "mdq_fragment_retries_total",
			"Fragment re-dispatches after transient worker failures."
		if op == dist.OpSearch {
			name, help = "mdq_search_retries_total",
				"Search-shard re-runs after transient worker failures."
		}
		obs.metrics.CounterL(name, help, "worker", worker).Inc()
		obs.events.Publish("retry", map[string]string{"op": op, "worker": worker})
	}
	e.OnProbe = func(outcome string) {
		obs.metrics.CounterL("mdq_fleet_template_probes_total",
			"Template probes sent to a worker, by outcome: a hit served the query from that worker's cached skeleton, a miss paid a sharded search.",
			"outcome", outcome).Inc()
	}
	s.stopFleet = e.startFleet(cfg.HealthInterval)
	if e.Feedback != nil {
		fmt.Printf("coordinator mode: execution traffic flows through the workers — " +
			"profile feedback runs under each worker's -feedback policy and returns via reverse gossip\n")
	}
}

// ServeHTTP serves the mux New mounted the endpoints on.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Admission is the gate /optimize and /query pass; Process drains it
// on shutdown.
func (s *Server) Admission() *serve.Admission { return s.obs.admission }

// Close stops the fleet's background loops (a no-op without a fleet).
func (s *Server) Close() { s.stopFleet() }
