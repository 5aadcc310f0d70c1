package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"mdq/bench/stats"
	"mdq/bench/workload"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations the value rests on (0 when the
	// value is a count or a ratio of counts).
	Samples int `json:"samples,omitempty"`
}

// result is what one run of one workload reports.
type result struct {
	Workload  string                 `json:"workload"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Notes are printed under the metrics: what a reader needs to
	// weigh them, such as a percentile the sample does not support.
	Notes []string `json:"notes,omitempty"`
}

func (r *result) set(name string, value float64, samples int) {
	def, ok := lookupMetric(name)
	if !ok {
		panic("metric " + name + " is not in the catalogue")
	}
	r.Metrics[name] = metricValue{Value: value, Unit: def.Unit, Samples: samples}
}

// maxFailedShare is the share of failed requests above which a run
// exits non-zero instead of reporting.
const maxFailedShare = 0.01

// setupRepeats is how many times an untraced run sets the fleet up —
// launch, readiness, warm-up — to report the median as setup_s.
const setupRepeats = 3

// session is one started and warmed fleet with the driver bound to it.
type session struct {
	fleet  *fleet
	driver *driver
	setup  time.Duration
}

func (s *session) close() {
	s.driver.close()
	s.fleet.stop()
}

// setUp launches the workload's processes, waits until they are
// ready and sends the warm-up requests. The warm-up is a fixed count,
// so the first search and fleet discovery are paid here and not in
// the measured window. Any failed warm-up request invalidates the run.
func setUp(ctx context.Context, bins binaries, w *workload.Workload, o *oracle, clients int) (*session, error) {
	start := time.Now()
	f, err := startFleet(bins, w.Spec)
	if err != nil {
		return nil, err
	}
	s := &session{fleet: f, driver: newDriver(f.base, w, o, w.Clients)}
	warm := s.driver.loop(ctx, clients, 0, w.Warmup, time.Time{}, false)
	if err := ctx.Err(); err != nil {
		s.close()
		return nil, err
	}
	if warm.failed > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed; first: %s", warm.failed, warm.attempted, warm.firstFailure)
	}
	s.setup = time.Since(start)
	return s, nil
}

// snapshot is the fleet's counters at one instant.
type snapshot struct {
	coordinator sample
	workers     sample // summed over workers
	usage       []procUsage
}

func (s *session) snapshot(ctx context.Context) (*snapshot, error) {
	if err := s.fleet.checkAlive(); err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: 5 * time.Second}
	snap := &snapshot{workers: sample{}}
	for _, p := range s.fleet.procs {
		m, err := scrape(ctx, client, p)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", p.role, err)
		}
		if p == s.fleet.coordinator() {
			snap.coordinator = m
		} else {
			snap.workers.add(m)
		}
		u, err := p.usage()
		if err != nil {
			return nil, fmt.Errorf("reading /proc of %s: %w", p.role, err)
		}
		snap.usage = append(snap.usage, u)
	}
	return snap, nil
}

// measure drives one closed loop on a warmed session — requests
// from..to of the list, for at most dur (0: until the range is sent)
// — between two snapshots of the fleet's counters, and checks the
// run's validity guards.
func (s *session) measure(ctx context.Context, clients, from, to int, dur time.Duration, keep bool) (win window, before, after *snapshot, err error) {
	w := s.driver.w
	if before, err = s.snapshot(ctx); err != nil {
		return
	}
	var deadline time.Time
	if dur > 0 {
		deadline = time.Now().Add(dur)
	}
	win = s.driver.loop(ctx, clients, from, to, deadline, keep)
	if err = ctx.Err(); err != nil {
		return
	}
	if after, err = s.snapshot(ctx); err != nil {
		return
	}
	// Every request the client sent, warm-up included, must be one the
	// server counted: a mismatch means the two sides measured
	// different things.
	served := after.coordinator.sum("mdq_requests_total", `endpoint="/query"`)
	if sent := s.driver.sent.Load(); served != float64(sent) {
		err = fmt.Errorf("invalid run: client sent %d requests, server counted %.0f on /query", sent, served)
		return
	}
	if w.Name == "cold_search" {
		// A cold request that any cache tier served was not cold.
		misses := after.coordinator.sub(before.coordinator).sum("mdq_plan_cache_serves_total", `class="miss"`)
		if misses != float64(win.attempted) {
			err = fmt.Errorf("invalid run: %d cold requests but %.0f plan-cache misses", win.attempted, misses)
			return
		}
	}
	return
}

// runUntraced measures one workload's end-to-end metrics: tracing
// off, setup repeated, the full window.
func runUntraced(ctx context.Context, bins binaries, w *workload.Workload, seconds int) (*result, error) {
	o, err := buildOracle(w)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var s *session
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.close()
		}
		if s, err = setUp(ctx, bins, w, o, w.Clients); err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
	}
	defer s.close()
	to, dur := windowEnd(w, time.Duration(seconds)*time.Second)
	win, before, after, err := s.measure(ctx, w.Clients, w.Warmup, to, dur, false)
	if err != nil {
		return nil, err
	}
	res := newResult(w, win)
	if win.ok() == 0 {
		return res, fmt.Errorf("no request was answered correctly; first failure: %s", win.firstFailure)
	}
	lat, fb := stats.Sorted(win.latencies), stats.Sorted(win.firstBytes)
	res.set("throughput_rps", float64(win.ok())/win.elapsed.Seconds(), win.ok())
	res.set("latency_p50_ms", stats.Percentile(lat, 50), len(lat))
	res.set("latency_p90_ms", stats.Percentile(lat, 90), len(lat))
	if q, label, ok := stats.HighestSupported(len(lat)); ok {
		res.Notes = append(res.Notes, fmt.Sprintf("highest latency percentile %d samples support (≥ %d beyond it): %s = %.4f ms",
			len(lat), stats.MinBeyond, label, stats.Percentile(lat, q)))
	}
	if !stats.Supports(len(lat), 90) {
		res.Notes = append(res.Notes, fmt.Sprintf("latency_p90_ms has fewer than %d samples beyond it; it repeats only because every seed sends the same keys", stats.MinBeyond))
	}
	res.set("first_byte_p50_ms", stats.Percentile(fb, 50), len(fb))
	var cpu time.Duration
	for i := range after.usage {
		cpu += after.usage[i].cpu - before.usage[i].cpu
	}
	res.set("cpu_ms_per_query", ms(cpu)/float64(win.ok()), win.ok())
	res.set("setup_s", stats.Median(setups), len(setups))
	return res, nil
}

// windowEnd returns what ends a workload's full measured window: the
// end of the list for a count-bounded workload, the clock otherwise.
func windowEnd(w *workload.Workload, dur time.Duration) (to int, limit time.Duration) {
	if w.CountBounded {
		return len(w.Requests), 0
	}
	return farEnd, dur
}

func newResult(w *workload.Workload, win window) *result {
	return &result{
		Workload:  w.Name,
		Correct:   win.failed == 0,
		Attempted: win.attempted,
		Failed:    win.failed,
		Metrics:   map[string]metricValue{},
	}
}
