package main

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"mdq/bench/stats"
	"mdq/bench/workload"
)

// tracedWindowShare is the part of -seconds a traced run spends on the
// two-client window that feeds the counter-derived metrics; the rest
// goes to the one-at-a-time prefix, the replica passes and the layer
// timings.
const tracedWindowShare = 0.4

// fidelityFactor is the factor by which the replica's mean optimize
// and execute times may differ from the real server's over the same
// prefix before the replica counts as unfaithful. It catches a missing
// tier or a wrong default — either moves a time several-fold — and no
// less: the two passes run seconds apart on a box whose speed drifts
// by up to 1.6× between them, and the replica's tight loop pays
// garbage-collection assists the server's idle core absorbs (its
// optimize mean sits 1.0–1.4× the server's on a quiet box). The
// measured ratios are printed with every traced run.
const fidelityFactor = 3.0

// runTraced produces one workload's per-layer metrics.
//
//  1. A fresh real fleet is warmed and sent the traced prefix one
//     request at a time, then driven by the usual closed loop for a
//     shortened window: the /metrics and /proc deltas of these two
//     phases give every counter-derived metric.
//  2. A fresh in-process replica replays the same warm-up and prefix
//     with spans on (fleet workloads: once per transport), and once
//     more with spans off, which prices the tracing itself.
//  3. Single layers are timed on the replica's queries and plans.
//
// The replica must return the prefix's rows exactly as the real fleet
// did, from the same plan-cache tier (see served), and spend within
// fidelityFactor of its optimize and execute time; otherwise the
// table is printed marked UNFAITHFUL and the run fails.
func (b *bench) runTraced(ctx context.Context, w *workload.Workload) (*result, error) {
	o, err := buildOracle(w)
	if err != nil {
		return nil, err
	}
	real, err := b.drivePrefixAndWindow(ctx, w, o)
	if err != nil {
		return nil, err
	}
	res := newResult(w, real.window)
	real.report(res)

	kind := localTransport
	if w.Workers > 0 {
		kind = httpTransport
	}
	traced, err := replay(ctx, w, kind, newRecorder())
	if err != nil {
		return nil, err
	}
	defer traced.replica.close()
	spans := map[string][]spanRec{"replica": traced.replica.rec.snapshot()}
	inPrefix := func(req int) bool { return req >= w.Warmup }
	lt := aggregate(spans["replica"], inPrefix)
	local := lt // where worker-side spans link to their request
	if w.Workers > 0 {
		lp, err := replay(ctx, w, localTransport, newRecorder())
		if err != nil {
			return nil, err
		}
		lp.replica.close()
		spans["replica_local_transport"] = lp.replica.rec.snapshot()
		local = aggregate(spans["replica_local_transport"], inPrefix)
	}
	untraced, err := replay(ctx, w, kind, nil)
	if err != nil {
		return nil, err
	}
	untraced.replica.close()

	reportSpans(res, w, lt, local)
	res.set("trace.overhead_share", (traced.wall.Seconds()-untraced.wall.Seconds())/untraced.wall.Seconds(), w.TracedPrefix)
	// Named spans against what the real client waited for over the
	// same requests: the share of the latency the table explains.
	named := lt.total["request"] - lt.self["request"]
	res.set("trace.span_coverage_share", named/1e6/stats.Mean(real.prefix.latencies), w.TracedPrefix)

	if err := benchLayers(ctx, traced.replica, w, res); err != nil {
		return nil, err
	}
	path := filepath.Join(b.root, buildDir, "spans-"+w.Name+".json")
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Printf("%s: spans written to %s\n", w.Name, path)
	for _, def := range perLayer {
		if _, ok := res.Metrics[def.Name]; !ok {
			res.set(def.Name, 0, 0) // the layer did nothing on this workload
		}
	}

	drift, ratios := real.fidelity(w, traced, lt)
	res.Notes = append(res.Notes, ratios...)
	if len(drift) > 0 {
		fmt.Printf("\nUNFAITHFUL: the in-process replica no longer mirrors cmd/mdqserve's /query path:\n  %s\n", strings.Join(drift, "\n  "))
		printReport(w, res, true)
		return nil, fmt.Errorf("replica unfaithful on %d counts; bring bench/cmd/mdqperf/replica.go back in line with cmd/mdqserve", len(drift))
	}
	return res, nil
}

// realRun is what the real fleet measured in a traced run.
type realRun struct {
	prefix, window          window
	prefixDelta             sample // coordinator counters over the prefix
	coordinator, workers    sample // counter deltas over the window
	gaugesAfter             sample // every process, at the end of the window
	usageBefore, usageAfter []procUsage
	workerCount             int
}

func (b *bench) drivePrefixAndWindow(ctx context.Context, w *workload.Workload, o *oracle) (*realRun, error) {
	// One client: the replica replays the same requests in the same
	// order against the same state, so answers can be compared one by
	// one.
	s, err := setUp(ctx, b.bins, w, o, 1)
	if err != nil {
		return nil, err
	}
	defer s.close()
	from := w.Warmup
	prefix, before, after, err := s.measure(ctx, 1, from, from+w.TracedPrefix, 0, true)
	if err != nil {
		return nil, err
	}
	if prefix.failed > 0 {
		return nil, fmt.Errorf("traced prefix: %d of %d requests failed; first: %s", prefix.failed, prefix.attempted, prefix.firstFailure)
	}
	rr := &realRun{prefix: prefix, prefixDelta: after.coordinator.sub(before.coordinator), workerCount: w.Workers}
	to, _ := windowEnd(w, 0)
	dur := time.Duration(tracedWindowShare * float64(b.seconds) * float64(time.Second))
	rr.window, before, after, err = s.measure(ctx, w.Clients, from+w.TracedPrefix, to, dur, false)
	if err != nil {
		return nil, err
	}
	if rr.window.ok() == 0 {
		return nil, fmt.Errorf("no request of the window was answered correctly; first failure: %s", rr.window.firstFailure)
	}
	rr.coordinator = after.coordinator.sub(before.coordinator)
	rr.workers = after.workers.sub(before.workers)
	rr.gaugesAfter = sample{}
	rr.gaugesAfter.add(after.coordinator)
	rr.gaugesAfter.add(after.workers)
	rr.usageBefore, rr.usageAfter = before.usage, after.usage
	return rr, nil
}

// report sets the metrics read from outside the real processes: the
// deltas of their /metrics and /proc over the two-client window.
func (rr *realRun) report(res *result) {
	win, d := rr.window, rr.coordinator
	ok, attempted := float64(win.ok()), float64(win.attempted)
	res.set("serve.coalesced_share", d.sum("mdq_query_coalesced_total")/attempted, 0)
	res.set("serve.shed_share", d.sum("mdq_admission_shed_total")/attempted, 0)
	if serves := d.sum("mdq_plan_cache_serves_total"); serves > 0 {
		res.set("opt.plan_cache.template_share", d.sum("mdq_plan_cache_serves_total", `class="template"`)/serves, 0)
		res.set("opt.plan_cache.revalidated_share", d.sum("mdq_plan_cache_serves_total", `class="revalidated"`)/serves, 0)
		res.set("opt.plan_cache.miss_share", d.sum("mdq_plan_cache_serves_total", `class="miss"`)/serves, 0)
	}
	res.set("service.calls_per_query", d.sum("mdq_service_calls_total")/ok, 0)
	res.set("service.epoch_bumps_per_s", float64(win.epochLast-win.epochFirst)/win.elapsed.Seconds(), 0)

	// The result cache sits where the service calls happen: in the
	// single process, or in each worker.
	caches := sample{}
	caches.add(d)
	caches.add(rr.workers)
	hits := caches.sum("mdq_result_cache_events_total", `event="hit"`)
	misses := caches.sum("mdq_result_cache_events_total", `event="miss"`)
	if hits+misses > 0 {
		res.set("rescache.hit_share", hits/(hits+misses), 0)
	}
	res.set("rescache.invalidates_per_query", caches.sum("mdq_result_cache_events_total", `event="invalidate"`)/ok, 0)
	res.set("rescache.entries", rr.gaugesAfter.sum("mdq_result_cache_entries"), 0)
	res.set("rescache.bytes", rr.gaugesAfter.sum("mdq_result_cache_bytes"), 0)

	res.set("dist.retries", d.sum("mdq_fragment_retries_total")+d.sum("mdq_search_retries_total"), 0)

	server := d.mean("mdq_request_seconds", `endpoint="/query"`)
	res.set("http.overhead_us", stats.Mean(win.latencies)*1e3-server*1e6, win.ok())
	res.set("http.response_bytes", float64(win.bytes)/ok, win.ok())
	res.set("server.optimize_ms", d.mean("mdq_optimize_seconds")*1e3, int(d.sum("mdq_optimize_seconds_count")))
	res.set("server.execute_ms", d.mean("mdq_execute_seconds")*1e3, int(d.sum("mdq_execute_seconds_count")))
	res.set("server.first_row_ms", d.mean("mdq_exec_first_row_seconds")*1e3, int(d.sum("mdq_exec_first_row_seconds_count")))

	var peak int64
	var coordinatorCPU, workerCPU time.Duration
	for i, u := range rr.usageAfter {
		peak = max(peak, u.peakRSS)
		if used := u.cpu - rr.usageBefore[i].cpu; i < rr.workerCount {
			workerCPU += used
		} else {
			coordinatorCPU += used
		}
	}
	res.set("proc.rss_peak_mb", float64(peak)/(1<<20), 0)
	res.set("proc.cpu_ms_per_query.coordinator", ms(coordinatorCPU)/ok, win.ok())
	res.set("proc.cpu_ms_per_query.workers", ms(workerCPU)/ok, win.ok())

	if lat := stats.Sorted(win.latencies); stats.Supports(len(lat), 99) {
		res.set("client.latency_p99_ms", stats.Percentile(lat, 99), len(lat))
	}
	res.set("client.failed_share", float64(win.failed)/attempted, 0)
}

// replayed is one pass of a workload's warm-up and traced prefix
// through a fresh replica.
type replayed struct {
	replica *replica
	answers []*answer     // of the prefix
	wall    time.Duration // of the prefix
}

func replay(ctx context.Context, w *workload.Workload, kind transportKind, rec *recorder) (*replayed, error) {
	r, err := newReplica(w.Spec, kind, rec)
	if err != nil {
		return nil, err
	}
	out := &replayed{replica: r}
	var start time.Time
	for i := 0; i < w.Warmup+w.TracedPrefix; i++ {
		if i == w.Warmup {
			start = time.Now()
		}
		a, err := r.handle(ctx, i, w.Requests[i].Body())
		if err != nil {
			r.close()
			return nil, fmt.Errorf("replica: request %d: %w", i, err)
		}
		if i >= w.Warmup {
			out.answers = append(out.answers, a)
		}
	}
	out.wall = time.Since(start)
	return out, nil
}

// reportSpans sets the metrics computed from the replica's spans:
// per-request means over the traced prefix. lt is the pass that
// mirrors the real fleet (HTTP between coordinator and workers);
// local is the pass over LocalTransport, the only one whose
// worker-side spans still know their request (the same pass on a
// single-process workload).
func reportSpans(res *result, w *workload.Workload, lt, local layerTimes) {
	n := lt.requests
	usOf := func(ns float64) float64 { return ns / 1e3 }
	msOf := func(ns float64) float64 { return ns / 1e6 }
	perSpan := func(l layerTimes, name string) float64 {
		if l.count[name] == 0 {
			return 0
		}
		return l.total[name] / l.count[name]
	}
	res.set("cq.parse_template_us", usOf(lt.self["cq.parse_template"]), n)
	res.set("cq.bind_resolve_us", usOf(lt.self["cq.bind_resolve"]), n)
	res.set("cq.canonical_key_us", usOf(lt.self["cq.canonical_key"]), n)
	res.set("serve.admission_wait_us", usOf(lt.self["serve.admission_wait"]), n)
	res.set("serve.coalesce_self_us", usOf(lt.self["serve.coalesce"]), n)
	res.set("opt.optimize_template_us", usOf(lt.total["opt.optimize_template"]), n)
	res.set("opt.template_hit_us", usOf(perSpan(lt, "opt.template_hit")), int(lt.count["opt.template_hit"]*float64(n)+0.5))
	res.set("plan.describe_us", usOf(lt.self["plan.describe"]), n)
	res.set("http.decode_us", usOf(lt.self["http.decode"]), n)
	res.set("http.encode_us", usOf(lt.self["http.encode"]), n)
	res.set("service.invoke_us", usOf(local.total["service.invoke"]), n)
	if w.Workers == 0 {
		res.set("exec.run_us", usOf(lt.total["exec.run"]), n)
		res.set("exec.self_us", usOf(lt.self["exec.run"]), n)
		res.set("exec.rows_per_run", lt.n["exec.run"], n)
	} else {
		// The executor runs in the workers, one RunFragment per
		// dispatched fragment.
		res.set("exec.run_us", usOf(local.total["dist.transport.execute_fragment"]), n)
		res.set("exec.self_us", usOf(local.self["dist.transport.execute_fragment"]), n)
		res.set("exec.rows_per_run", lt.n["dist.execute_plan"], n)
	}
	res.set("exec.first_row_us", usOf(lt.total["exec.first_row"]), n)

	res.set("dist.optimize_template_ms", msOf(lt.total["dist.optimize_template"]), n)
	res.set("dist.execute_plan_ms", msOf(lt.total["dist.execute_plan"]), n)
	res.set("dist.coordinator_self_ms", msOf(lt.self["dist.optimize_template"]+lt.self["dist.execute_plan"]), n)
	res.set("dist.fragments_per_query", lt.count["dist.transport.execute_fragment"], n)
	res.set("dist.transport.search_ms", msOf(perSpan(lt, "dist.transport.search")), n)
	res.set("dist.transport.search_per_query", lt.count["dist.transport.search"], n)
	res.set("dist.transport.sync_per_query", lt.count["dist.transport.sync"], n)
	res.set("dist.transport.execute_fragment_ms", msOf(perSpan(lt, "dist.transport.execute_fragment")), n)
	res.set("dist.wire_ms", msOf(lt.total["dist.transport.execute_fragment"]-local.total["dist.transport.execute_fragment"]), n)
	res.set("dist.wire.tuples_per_query", lt.n["dist.transport.execute_fragment"], n)
}

// served folds the plan-cache classes two runs of the same server
// disagree on. A template hit is "revalidated" when a feedback epoch
// bump landed since the entry was last served, and when a bump lands
// depends on how far the streaming executor's producers ran before the
// k-th row cancelled them — timing, not input. Whether the template
// cache served at all does not vary.
func served(class string) string {
	if class == "revalidated" {
		return "template"
	}
	return class
}

// fidelity lists where the replica departed from the real fleet over
// the traced prefix — empty means faithful — and the time ratios it
// judged by.
func (rr *realRun) fidelity(w *workload.Workload, traced *replayed, lt layerTimes) (drift, ratios []string) {
	for i, a := range traced.answers {
		real := rr.prefix.replies[i]
		if served(a.class) != served(real.class) {
			drift = append(drift, fmt.Sprintf("request %d: replica served plan-cache class %q, the server %q", w.Warmup+i, a.class, real.class))
		}
		if !reflect.DeepEqual(a.rows, real.rows) {
			drift = append(drift, fmt.Sprintf("request %d: replica returned rows %v, the server %v", w.Warmup+i, a.rows, real.rows))
		}
		if len(drift) >= 6 {
			drift = append(drift, "…")
			break
		}
	}
	optName, execName := "opt.optimize_template", "exec.run"
	if w.Workers > 0 {
		optName, execName = "dist.optimize_template", "dist.execute_plan"
	}
	for _, c := range []struct {
		what            string
		replica, server float64 // ms per request
	}{
		{"optimize", lt.total[optName] / 1e6, rr.prefixDelta.mean("mdq_optimize_seconds") * 1e3},
		{"execute", lt.total[execName] / 1e6, rr.prefixDelta.mean("mdq_execute_seconds") * 1e3},
	} {
		ratios = append(ratios, fmt.Sprintf("replica fidelity, %s: replica %.4f ms per request, server %.4f ms, ratio %.2f",
			c.what, c.replica, c.server, c.replica/c.server))
		if c.server == 0 || c.replica < c.server/fidelityFactor || c.replica > c.server*fidelityFactor {
			drift = append(drift, fmt.Sprintf("%s: replica %.4f ms per request, server %.4f ms (more than %.0f× apart)", c.what, c.replica, c.server, fidelityFactor))
		}
	}
	return drift, ratios
}
