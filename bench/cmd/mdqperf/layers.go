package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"mdq/bench/workload"
	"mdq/internal/abind"
	"mdq/internal/card"
	"mdq/internal/cost"
	"mdq/internal/cq"
	"mdq/internal/dist"
	"mdq/internal/exec"
	"mdq/internal/fetch"
	"mdq/internal/opt"
	"mdq/internal/plan"
	"mdq/internal/schema"
)

// timeIt runs fn until it has run at least minReps times and for at
// least 2 ms, and returns the mean duration of one call.
func timeIt(minReps int, fn func()) time.Duration {
	reps := 0
	start := time.Now()
	for reps < minReps || time.Since(start) < 2*time.Millisecond {
		fn()
		reps++
	}
	return time.Since(start) / time.Duration(reps)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mean accumulates a running mean.
type mean struct {
	sum float64
	n   int
}

func (m *mean) add(v float64) { m.sum += v; m.n++ }
func (m *mean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// layerSample is how many distinct requests of a workload the layer
// timings below run on; searchSample how many of those are searched
// from scratch (a travel search takes about a second on one core).
const (
	layerSample  = 4
	searchSample = 2
)

// benchLayers times single layers on the workload's own queries and
// winning plans, on a replica that has served the workload's prefix
// (its caches hold what the servers' would). Each number is a mean
// over the sampled requests.
func benchLayers(ctx context.Context, r *replica, w *workload.Workload, res *result) error {
	var (
		enumerate, annotate, assign, partition mean
		searchMS, states, leaves, vectors      mean
		allocs, bytes, execAllocs              mean
	)
	seen := map[string]bool{}
	sampled := 0
	for _, req := range w.Measured() {
		id := req.AnswerKey() + "\x00" + req.CacheKey()
		if seen[id] {
			continue
		}
		seen[id] = true
		if sampled++; sampled > layerSample {
			break
		}
		tpl, err := cq.ParseTemplate(req.Template)
		if err != nil {
			return err
		}
		q, err := r.bindResolve(tpl, map[string]any{req.Param: req.Value})
		if err != nil {
			return err
		}
		metric := req.Metric
		if metric == "" {
			metric = "etm" // the server's default
		}
		m, _ := cost.ByName(metric)
		estimator := card.Config{Mode: card.OneCall} // the requests name no cache mode

		enumerate.add(us(timeIt(5, func() { abind.Enumerate(q) })))

		search := &opt.Optimizer{Metric: m, Estimator: estimator, K: req.K, ChooseMethod: r.reg.MethodChooser(), Parallelism: 1}
		var best *plan.Plan
		if sampled <= searchSample {
			// One goroutine, no cache: the counters and the allocation
			// delta of this call repeat exactly from run to run.
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			sres, err := search.Optimize(q)
			took := time.Since(start)
			runtime.ReadMemStats(&after)
			if err != nil {
				return fmt.Errorf("searching %s=%s: %w", req.Param, req.Value, err)
			}
			searchMS.add(ms(took))
			states.add(float64(sres.Stats.StatesVisited))
			leaves.add(float64(sres.Stats.Leaves))
			vectors.add(float64(sres.Stats.FetchVectors))
			allocs.add(float64(after.Mallocs - before.Mallocs))
			bytes.add(float64(after.TotalAlloc - before.TotalAlloc))
			best = sres.Best
		}
		if best == nil {
			// The plan the replica's template cache serves for this
			// request: a hit after the prefix, so no search runs.
			served := *search
			served.Parallelism, served.Cache, served.CacheSalt, served.Epochs = opt.AutoParallelism, r.cache, r.reg.CacheSalt(), r.reg
			sres, err := served.OptimizeTemplate(q)
			if err != nil {
				return err
			}
			best = sres.Best
		}

		annotate.add(us(timeIt(5, func() { estimator.Annotate(best) })))
		assigner := &fetch.Assigner{Estimator: estimator, Metric: m, K: req.K}
		assign.add(us(timeIt(3, func() { assigner.Assign(best.Clone()) })))
		if len(r.workers) > 0 {
			partition.add(us(timeIt(5, func() { dist.PartitionPlan(best, r.hosts) })))
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if len(r.workers) > 0 {
			_, err = r.coordinator(m, estimator.Mode, req.K).ExecutePlan(ctx, best)
		} else {
			runner := &exec.Runner{Registry: r.reg, Cache: estimator.Mode, K: req.K, Feedback: r.feedback, BufferSize: exec.DefaultBufferSize, ResultCache: r.rescache}
			_, err = runner.Run(ctx, best)
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			return fmt.Errorf("executing %s=%s: %w", req.Param, req.Value, err)
		}
		execAllocs.add(float64(after.Mallocs - before.Mallocs))
	}
	res.set("abind.enumerate_us", enumerate.value(), enumerate.n)
	res.set("card.annotate_us", annotate.value(), annotate.n)
	res.set("fetch.assign_us", assign.value(), assign.n)
	res.set("dist.partition_us", partition.value(), partition.n)
	res.set("opt.search_ms", searchMS.value(), searchMS.n)
	res.set("opt.search.states", states.value(), states.n)
	res.set("opt.search.leaves", leaves.value(), leaves.n)
	res.set("opt.search.fetch_vectors", vectors.value(), vectors.n)
	res.set("opt.search.allocs", allocs.value(), allocs.n)
	res.set("opt.search.bytes", bytes.value(), bytes.n)
	res.set("exec.allocs_per_run", execAllocs.value(), execAllocs.n)

	mergeScan, nestedLoop, err := benchStreamJoin(ctx)
	if err != nil {
		return err
	}
	res.set("exec.stream_join.merge_scan_us", us(mergeScan), 0)
	res.set("exec.stream_join.nested_loop_us", us(nestedLoop), 0)

	get, put := benchResultCache(r)
	res.set("rescache.get_ns", float64(get), len(r.calls.samples))
	res.set("rescache.put_ns", float64(put), len(r.calls.samples))
	return nil
}

// joinArc is the length of each input of the StreamJoin timing.
const joinArc = 100

// benchStreamJoin times exec.StreamJoin over two 100-tuple arcs that
// share no variable, so all 10 000 pairs merge and are emitted.
func benchStreamJoin(ctx context.Context) (mergeScan, nestedLoop time.Duration, err error) {
	left := make([]exec.Tuple, joinArc)
	right := make([]exec.Tuple, joinArc)
	for i := range left {
		left[i] = exec.TupleOf([]schema.Value{schema.N(float64(i)), schema.Null})
		right[i] = exec.TupleOf([]schema.Value{schema.Null, schema.N(float64(i))})
	}
	feed := func(ts []exec.Tuple) <-chan exec.Tuple {
		ch := make(chan exec.Tuple, len(ts)) // holds the whole arc: the join never waits on a producer
		for _, t := range ts {
			ch <- t
		}
		close(ch)
		return ch
	}
	run := func(method plan.JoinMethod) time.Duration {
		return timeIt(3, func() {
			pairs := 0
			jerr := exec.StreamJoin(ctx, method, feed(left), feed(right), nil, nil, func(exec.Tuple) error { pairs++; return nil }, nil)
			if jerr == nil && pairs != joinArc*joinArc {
				jerr = fmt.Errorf("StreamJoin emitted %d pairs, want %d", pairs, joinArc*joinArc)
			}
			if jerr != nil && err == nil {
				err = jerr
			}
		})
	}
	return run(plan.MergeScan), run(plan.NestedLoop), err
}

// benchResultCache times rescache.Store.Put and Get (hits) on the
// service invocations the workload made, in nanoseconds per call.
func benchResultCache(r *replica) (get, put time.Duration) {
	samples := r.calls.samples
	if len(samples) == 0 {
		return 0, 0
	}
	store := newResultStore(r.reg)
	put = timeIt(3, func() {
		for _, s := range samples {
			store.Put(s.service, s.key, s.entry)
		}
	}) / time.Duration(len(samples))
	get = timeIt(3, func() {
		for _, s := range samples {
			store.Get(s.service, s.key)
		}
	}) / time.Duration(len(samples))
	return get, put
}
