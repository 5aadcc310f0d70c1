package server

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mdq/internal/opt"
	"mdq/internal/serve"
	"mdq/internal/service"
)

// MountPprof mounts net/http/pprof under /debug/pprof/. Opt-in only:
// profiles expose internals, so the binaries call this solely behind
// their -pprof flag (enable on trusted networks).
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
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
