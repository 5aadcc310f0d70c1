package server

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mdq/internal/exec"
	"mdq/internal/httpwrap"
	"mdq/internal/opt"
	"mdq/internal/rescache"
	"mdq/internal/serve"
	"mdq/internal/service"
	"mdq/internal/simweb"
)

// Node is what mdqserve and mdqworker share: the flags both declare,
// each bound straight into the struct that reads it, and what both
// build from them before their roles diverge — the observed world,
// its services mux, the plan cache, the feedback policy and the
// result store.
type Node struct {
	// Process carries -addr, -drain-timeout and -cache-file; Open
	// fills its Registry and PlanCache.
	Process
	// World, Scale, Parallelism and BufferSize are -world, -scale,
	// -parallel and -buffer.
	World       string
	Scale       float64
	Parallelism int
	BufferSize  int
	// Cache is the plan cache policy (-plancache, -cachettl,
	// -cachebytes); a Capacity of 0 disables the cache.
	Cache opt.Policy
	// Results is the result store policy (-rescache, -rescache-bytes,
	// -rescache-ttl); a MaxEntries of 0 disables the store.
	Results rescache.Config
	// Feedback enables FeedbackPolicy (-feedback, -feedback-min-calls,
	// -feedback-min-drift).
	Feedback       bool
	FeedbackPolicy service.FeedbackPolicy
	// Pprof mounts net/http/pprof under /debug/pprof/ (-pprof). Opt-in
	// only: profiles expose internals (enable on trusted networks).
	Pprof bool

	// Mux serves the world's services, named by Services; Open fills
	// both.
	Mux      *http.ServeMux
	Services []string
}

// RegisterFlags declares the shared flags on fs; -addr defaults to
// addr, every other default is the same for both binaries.
func (n *Node) RegisterFlags(fs *flag.FlagSet, addr string) {
	fs.StringVar(&n.Addr, "addr", addr, "listen address")
	fs.StringVar(&n.World, "world", "travel", "built-in world: travel, bio, mashup or zipf")
	fs.Float64Var(&n.Scale, "scale", 0, "sleep scale for simulated latencies (0 = report only)")
	fs.IntVar(&n.Parallelism, "parallel", opt.AutoParallelism, "optimizer search workers per search or shard (-1 = one per CPU, 1 = sequential)")
	fs.IntVar(&n.BufferSize, "buffer", exec.DefaultBufferSize, "streaming executor edge buffer in tuples (larger = fewer stalls, more memory; smaller = tighter memory, earlier backpressure)")
	fs.IntVar(&n.Cache.Capacity, "plancache", 128, "plan cache capacity in entries (0 disables)")
	fs.DurationVar(&n.Cache.TTL, "cachettl", 0, "plan cache entry TTL (0 = no expiry)")
	fs.Int64Var(&n.Cache.MaxBytes, "cachebytes", 0, "approximate plan cache byte budget (0 = unlimited)")
	fs.StringVar(&n.CacheFile, "cache-file", "", "load the template cache from this file at start and save it on SIGINT/SIGTERM")
	fs.IntVar(&n.Results.MaxEntries, "rescache", rescache.DefaultMaxEntries, "shared service-call result cache capacity in entries (0 disables)")
	fs.Int64Var(&n.Results.MaxBytes, "rescache-bytes", rescache.DefaultMaxBytes, "approximate result cache byte budget (<0 = unlimited)")
	fs.DurationVar(&n.Results.TTL, "rescache-ttl", 0, "result cache entry TTL (0 = no expiry; epochs still invalidate)")
	fs.BoolVar(&n.Feedback, "feedback", true, "fold the traffic this process executes back into its service profiles (stats epochs)")
	fs.Int64Var(&n.FeedbackPolicy.MinCalls, "feedback-min-calls", 4, "observed calls required before a profile refresh")
	fs.Float64Var(&n.FeedbackPolicy.MinDrift, "feedback-min-drift", 0.1, "relative statistics drift required before a refresh")
	fs.DurationVar(&n.DrainTimeout, "drain-timeout", 15*time.Second, "max time to drain in-flight requests on shutdown")
	fs.BoolVar(&n.Pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default)")
}

// Open builds the parsed flags' world with every service observed,
// its services mux (with pprof when asked) and the plan cache,
// subscribed to the registry's epoch feed and warmed from -cache-file.
func (n *Node) Open(opts simweb.TravelOptions) error {
	reg, _, err := simweb.World(n.World, opts)
	if err != nil {
		return err
	}
	reg.ObserveAll()
	n.Registry = reg
	if n.Cache.Capacity > 0 {
		n.PlanCache = opt.NewPlanCacheWith(n.Cache)
		reg.SubscribeEpochs(n.PlanCache, n.PlanCache.InvalidateService)
	}
	n.Mux, n.Services = httpwrap.ServeRegistry(reg, httpwrap.HandlerOptions{SleepScale: n.Scale})
	if n.Pprof {
		n.Mux.HandleFunc("/debug/pprof/", pprof.Index)
		n.Mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		n.Mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		n.Mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		n.Mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Printf("pprof enabled on /debug/pprof/\n")
	}
	return n.LoadCache()
}

// Learn returns the feedback policy, nil without -feedback.
func (n *Node) Learn() *service.FeedbackPolicy {
	if !n.Feedback {
		return nil
	}
	return &n.FeedbackPolicy
}

// ResultStore returns a new result store under the -rescache* policy,
// nil when -rescache is 0. The caller binds it to the registry.
func (n *Node) ResultStore() *rescache.Store {
	if n.Results.MaxEntries == 0 {
		return nil
	}
	return rescache.New(n.Results)
}

// Process is the lifecycle mdqserve and mdqworker share: warm the
// template cache from -cache-file, listen, and on SIGINT/SIGTERM
// drain, flush learned statistics and save the cache.
type Process struct {
	Addr         string
	Handler      http.Handler
	DrainTimeout time.Duration
	// Admission, when non-nil, is closed to new requests before the
	// drain (they shed with 503) and awaited after it.
	Admission *serve.Admission
	Registry  *service.Registry
	// PlanCache and CacheFile name what LoadCache warms and Run saves;
	// either may be unset.
	PlanCache *opt.PlanCache
	CacheFile string
}

// LoadCache loads the template cache from CacheFile (stale entries
// revalidate on first use). A missing file is a cold start, not an
// error.
func (p *Process) LoadCache() error {
	if p.CacheFile == "" || p.PlanCache == nil {
		return nil
	}
	n, err := p.PlanCache.LoadFile(p.CacheFile, p.Registry)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("loading cache file: %w", err)
	}
	fmt.Printf("warmed %d template entries from %s\n", n, p.CacheFile)
	return nil
}

// Run serves Handler on Addr until SIGINT or SIGTERM, then shuts down
// gracefully: stop admitting, drain what is already running, flush
// pending feedback into the profiles and persist the template cache —
// in that order, so persisted entries carry the statistics the process
// actually learned. It returns early only if listening fails.
func (p *Process) Run() error {
	hs := &http.Server{
		Addr:              p.Addr,
		Handler:           p.Handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Printf("received %v: draining in-flight requests\n", s)
	}

	if p.Admission != nil {
		p.Admission.StartDrain()
	}
	sdCtx, cancel := context.WithTimeout(context.Background(), p.DrainTimeout)
	defer cancel()
	if err := hs.Shutdown(sdCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if p.Admission != nil {
		if err := p.Admission.Drain(sdCtx); err != nil {
			log.Printf("draining admissions: %v", err)
		}
	}
	if n := p.Registry.RefreshObserved(); n > 0 {
		fmt.Printf("flushed pending feedback into %d profile(s)\n", n)
	}
	if p.CacheFile != "" && p.PlanCache != nil {
		if err := p.PlanCache.SaveFile(p.CacheFile); err != nil {
			return fmt.Errorf("saving cache file: %w", err)
		}
		fmt.Printf("saved template cache to %s\n", p.CacheFile)
	}
	return nil
}
