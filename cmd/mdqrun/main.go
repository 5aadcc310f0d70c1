// Command mdqrun optimizes and executes a multi-domain query end to
// end against a built-in world (or a remote mdqserve endpoint) and
// prints the ranked answers with per-service call accounting.
//
// Usage:
//
//	mdqrun [-world travel|bio|mashup|zipf] [-remote http://host:port]
//	       [-metric etm] [-cache one-call] [-k 10] [-sim] [-query "..."]
//	       [-template "... $param ..." -bind "param=value,..."]
//	       [-feedback] [-buffer 128] [-trace] [-rescache 4096]
//	       [-explain [-dot] [-v] [-repeat N]]
//
// With -explain nothing executes: each query is optimized through a
// plan cache and the report shows the plan (ASCII, or Graphviz DOT
// with -dot), its cost next to the uniform-model cost, feasibility and
// estimated answers, the search statistics, every optimization's cache
// outcome (-repeat N optimizes N times) and, with -v, the alternative
// plans; the plan cache's counters close the run. With a template,
// several binding sets show one search serving all of them.
//
// -bind accepts several binding sets separated by ';' — the template
// is optimized (through a template cache, one search skeleton serving
// all bindings) and executed once per set, with a shared service-call
// result cache (-rescache; 0 disables) carrying results across the
// runs, so overlapping bindings re-invoke only what they don't share.
// The per-set answers are followed by the cache's hit/miss counters —
// the single-process view of the server's cross-query sharing layer.
//
// With -trace the run records a span trace — optimizer phases, plan
// nodes with estimated vs observed cardinalities, individual service
// calls — and prints the explain-style tree after the answers.
//
// With -sim the plan runs on the deterministic virtual-time
// simulator and the makespan is reported; otherwise the concurrent
// executor runs it for real.
//
// With -template/-bind a parameterized query is bound before
// optimization; with -feedback the executed traffic is folded back
// into the observed service profiles afterwards and the refreshed
// statistics epochs are printed — one turn of the adaptive loop.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"mdq/internal/card"
	"mdq/internal/cost"
	"mdq/internal/cq"
	"mdq/internal/exec"
	"mdq/internal/httpwrap"
	"mdq/internal/opt"
	"mdq/internal/rescache"
	"mdq/internal/schema"
	"mdq/internal/server"
	"mdq/internal/service"
	"mdq/internal/sim"
	"mdq/internal/simweb"
	"mdq/internal/trace"
)

func main() {
	var (
		worldName = flag.String("world", "travel", "built-in world: travel, bio, mashup or zipf")
		remote    = flag.String("remote", "", "connect to a remote mdqserve endpoint instead")
		metric    = flag.String("metric", "etm", "cost metric")
		cache     = flag.String("cache", "one-call", "caching model: none, one-call, optimal")
		k         = flag.Int("k", 10, "answers to produce (0 = all)")
		useSim    = flag.Bool("sim", false, "run on the virtual-time simulator")
		expand    = flag.Bool("expand", false, "apply the §7 off-query expansion when the query is not executable")
		queryText = flag.String("query", "", "query text (default: the world's canonical query)")
		tplText   = flag.String("template", "", "parameterized query template with $param placeholders")
		bindText  = flag.String("bind", "", "bindings for -template as name=value[,name=value...]")
		feedback  = flag.Bool("feedback", false, "fold executed traffic back into observed service profiles")
		parallel  = flag.Int("parallel", opt.AutoParallelism, "optimizer search workers (-1 = one per CPU, 1 = sequential)")
		buffer    = flag.Int("buffer", exec.DefaultBufferSize, "streaming executor edge buffer in tuples (larger = fewer stalls, more memory; smaller = tighter memory, earlier backpressure)")
		doTrace   = flag.Bool("trace", false, "record a span trace of optimization and execution and print the explain-style tree")
		rescacheN = flag.Int("rescache", rescache.DefaultMaxEntries, "shared result cache entries across ';'-separated binding sets (0 disables)")
		explain   = flag.Bool("explain", false, "optimize only: print the plan, its cost, search statistics and cache outcomes, execute nothing")
		dot       = flag.Bool("dot", false, "with -explain, print the plan in Graphviz DOT instead of ASCII")
		verbose   = flag.Bool("v", false, "with -explain, also list alternative plans")
		repeat    = flag.Int("repeat", 1, "with -explain, optimize each query N times through the plan cache")
	)
	flag.Parse()
	if !*explain && (*dot || *verbose || *repeat != 1) {
		log.Fatal("-dot, -v and -repeat need -explain")
	}
	if *repeat < 1 {
		log.Fatal("-repeat must be at least 1")
	}
	ctx := context.Background()

	var (
		reg  *service.Registry
		text string
		err  error
	)
	if *remote != "" {
		reg, err = httpwrap.DialRegistry(ctx, *remote, nil)
		if err != nil {
			log.Fatal(err)
		}
		text = *queryText
		if text == "" {
			log.Fatal("-query is required with -remote")
		}
	} else {
		reg, text, err = simweb.World(*worldName, simweb.TravelOptions{})
		if err != nil {
			log.Fatal(err)
		}
		if *queryText != "" {
			text = *queryText
		}
	}
	m, ok := cost.ByName(*metric)
	if !ok {
		log.Fatalf("unknown metric %q", *metric)
	}
	mode, ok := card.ModeByName(*cache)
	if !ok {
		log.Fatalf("unknown cache mode %q", *cache)
	}
	if *feedback {
		reg.ObserveAll()
	}

	sch, err := reg.Schema()
	if err != nil {
		log.Fatal(err)
	}
	type boundQuery struct {
		label string
		q     *cq.Query
	}
	var queries []boundQuery
	if *tplText != "" {
		tpl, terr := cq.ParseTemplate(*tplText)
		if terr != nil {
			log.Fatal(terr)
		}
		for _, part := range strings.Split(*bindText, ";") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			values, berr := cq.ParseBindings(part)
			if berr != nil {
				log.Fatal(berr)
			}
			q, berr := tpl.Bind(values)
			if berr != nil {
				log.Fatal(berr)
			}
			queries = append(queries, boundQuery{label: part, q: q})
		}
		if len(queries) == 0 {
			log.Fatal("-template requires at least one -bind set")
		}
	} else {
		q, perr := cq.Parse(text)
		if perr != nil {
			log.Fatal(perr)
		}
		queries = append(queries, boundQuery{q: q})
	}

	// Several binding sets share one template cache (one search
	// skeleton, per-binding re-costing) and one service-call result
	// cache, so overlapping bindings only pay for what they don't
	// share — the CLI view of the server's cross-query sharing layer.
	sharing := len(queries) > 1
	eng := &server.Engine{Registry: reg, Parallelism: *parallel, BufferSize: *buffer}
	var store *rescache.Store
	if sharing || *explain {
		eng.Cache = opt.NewPlanCacheWith(opt.Policy{Capacity: 64})
		reg.SubscribeEpochs(eng.Cache, eng.Cache.InvalidateService)
	}
	if sharing && !*explain && *rescacheN != 0 {
		store = rescache.New(rescache.Config{MaxEntries: *rescacheN})
		store.Bind(reg)
		eng.ResultCache = store
	}
	knobs := server.Knobs{Metric: m, Estimator: card.Config{Mode: mode}, K: *k}
	if *verbose {
		knobs.Alternatives = 10
	}
	if *feedback {
		eng.Feedback = &service.FeedbackPolicy{}
	}

	for qi, bq := range queries {
		if sharing {
			if qi > 0 {
				fmt.Println()
			}
			fmt.Printf("== bindings: %s\n", bq.label)
		}
		runQuery(ctx, eng, sch, bq.q, runConfig{
			knobs:  knobs,
			useSim: *useSim, expand: *expand, doTrace: *doTrace,
			template: sharing || *explain && *tplText != "",
			explain:  *explain, dot: *dot, repeat: *repeat,
		})
	}
	if store != nil {
		st := store.Stats()
		fmt.Printf("\nresult cache: hits=%d misses=%d entries=%d\n", st.Hits, st.Misses, st.Entries)
	}
	if *explain {
		cs := eng.Cache.Stats()
		fmt.Printf("\nplan cache: %d searches for %d bindings (%d hits, %d misses, %d template hits, %d revalidations, %d divergences, %d borrowed serves, %d binding classes)\n",
			cs.Searches, len(queries), cs.Hits, cs.Misses, cs.TemplateHits, cs.Revalidations, cs.Divergences, cs.BorrowedServes, cs.Classes)
	}
}

// runConfig carries the per-run knobs of runQuery.
type runConfig struct {
	knobs    server.Knobs
	useSim   bool
	expand   bool
	doTrace  bool
	template bool
	explain  bool
	dot      bool
	repeat   int
}

// runQuery optimizes one bound query and, unless explaining, executes
// it and prints its answers, call accounting and optional trace.
func runQuery(ctx context.Context, eng *server.Engine, sch *schema.Schema, q *cq.Query, cfg runConfig) {
	kn := cfg.knobs
	if err := q.Resolve(sch); err != nil {
		log.Fatal(err)
	}

	if cfg.expand {
		eq, added, eerr := opt.Expand(q, sch, 2)
		if eerr != nil {
			log.Fatal(eerr)
		}
		if added > 0 {
			fmt.Printf("expanded with %d off-query atom(s): %s\n", added, eq)
		}
		q = eq
	}
	var qtrace *trace.Trace
	var rootSp *trace.Span
	if cfg.doTrace {
		qtrace = trace.New("")
		rootSp = qtrace.Root("query")
		ctx = trace.With(ctx, rootSp)
	}
	optimize := eng.Optimize
	if cfg.template {
		optimize = eng.OptimizeTemplate
	}
	var res *opt.Result
	var outcomes []string
	for i := 0; i < cfg.repeat; i++ {
		start := time.Now()
		r, err := optimize(ctx, q, kn)
		if err != nil {
			log.Fatal(err)
		}
		res = r
		outcomes = append(outcomes, fmt.Sprintf("%s [%v]", cacheOutcome(r), time.Since(start).Round(time.Microsecond)))
	}
	costLine := fmt.Sprintf("%s cost %.2f", kn.Metric.Name(), res.Cost)
	// Show the uniform-model estimate when profiled value
	// distributions moved this binding's cost away from it.
	uniform := res.Best.Clone()
	card.Config{Mode: kn.Estimator.Mode, NoValueStats: true}.Annotate(uniform)
	if uni := kn.Metric.Cost(uniform); uni != res.Cost {
		costLine += fmt.Sprintf(", uniform %.2f", uni)
	}
	if cfg.explain {
		fmt.Printf("query: %s\n", q)
	}
	fmt.Printf("plan: %s   (%s)\n\n", res.Best.Describe(), costLine)
	if cfg.explain {
		explainResult(eng, res, cfg, outcomes)
	} else {
		execute(ctx, eng, q, res, cfg)
	}
	if cfg.doTrace {
		rootSp.End()
		fmt.Printf("\ntrace %s:\n", qtrace.ID())
		trace.Render(os.Stdout, trace.Tree(qtrace.Spans()))
	}
}

// cacheOutcome names how the plan cache served one optimization.
func cacheOutcome(res *opt.Result) string {
	how := "searched"
	switch {
	case res.TemplateHit && res.Revalidated:
		how = "template hit (revalidated)"
	case res.TemplateHit:
		how = "template hit"
	case res.Cached:
		how = "exact hit"
	}
	if res.BindingClass != "" {
		how += ", class " + res.BindingClass
	}
	return how
}

// explainResult prints what -explain reports beyond the query and plan
// lines: the plan drawing, feasibility and estimated answers, the
// search statistics, each optimization's cache outcome and any
// alternatives.
func explainResult(eng *server.Engine, res *opt.Result, cfg runConfig, outcomes []string) {
	if cfg.dot {
		fmt.Print(res.Best.DOT())
	} else {
		fmt.Print(res.Best.ASCII())
	}
	fmt.Printf("\nfeasible for k=%d: %v, estimated answers: %.1f\n", cfg.knobs.K, res.Feasible, res.Best.OutputNode().TOut)
	st := res.Stats
	fmt.Printf("search: %d/%d permissible assignments, %d states (%d pruned), %d plans costed, %d fetch vectors (parallel=%d)\n",
		st.PermissibleAssignments, st.CandidateAssignments, st.StatesVisited, st.StatesPruned, st.Leaves, st.FetchVectors, eng.Parallelism)
	for i, o := range outcomes {
		fmt.Printf("optimization %d: %s\n", i+1, o)
	}
	if len(res.Alternatives) > 0 {
		fmt.Println("alternatives:")
		for i, alt := range res.Alternatives {
			fmt.Printf("  %2d. %-60s %8.2f\n", i+1, alt.Plan.Describe(), alt.Cost)
		}
	}
}

// execute runs an optimized plan and prints its answers, call
// accounting and feedback epochs.
func execute(ctx context.Context, eng *server.Engine, q *cq.Query, res *opt.Result, cfg runConfig) {
	reg, kn := eng.Registry, cfg.knobs
	var (
		rows  [][]string
		calls map[string]int64
		extra string
	)
	if cfg.useSim {
		s := &sim.Simulator{Registry: reg, Cache: kn.Estimator.Mode, K: kn.K}
		out, err := s.Run(ctx, res.Best)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range out.Rows {
			rows = append(rows, server.RenderRow(r))
		}
		calls = out.Stats.Calls
		extra = fmt.Sprintf("virtual makespan: %.1fs", out.Makespan.Seconds())
	} else {
		out, err := eng.Execute(ctx, res.Best, kn)
		if err != nil {
			log.Fatal(err)
		}
		for _, row := range out.Rows {
			rows = append(rows, server.RenderRow(row))
		}
		calls = out.Stats.Calls
		extra = fmt.Sprintf("wall time: %s", out.Elapsed)
		if out.FirstRow > 0 {
			extra += fmt.Sprintf(" (first row after %s)", out.FirstRow)
		}
	}

	head := make([]string, len(q.Head))
	for i, v := range q.Head {
		head[i] = string(v)
	}
	fmt.Println(strings.Join(head, " | "))
	for _, r := range rows {
		fmt.Println(strings.Join(r, " | "))
	}
	fmt.Printf("\n%d answers; %s\n", len(rows), extra)
	fmt.Print("calls:")
	for _, svc := range sortedKeys(calls) {
		fmt.Printf(" %s=%d", svc, calls[svc])
	}
	fmt.Println()
	if eng.Feedback != nil {
		epochs := reg.Epochs()
		if len(epochs) == 0 {
			fmt.Println("feedback: no profile drifted enough to refresh")
		} else {
			fmt.Print("feedback: refreshed epochs")
			for _, svc := range sortedKeys(epochs) {
				st, _ := reg.Lookup(svc)
				fmt.Printf(" %s@%d(ξ=%.2f)", svc, epochs[svc], st.Signature().Statistics().ERSPI)
			}
			fmt.Println()
		}
	}
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
