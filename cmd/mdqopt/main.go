// Command mdqopt optimizes a multi-domain query against one of the
// built-in simulated worlds and prints the chosen plan, its cost and
// the search statistics.
//
// Usage:
//
//	mdqopt [-world travel|bio|mashup|zipf] [-metric etm|rr|sum|bottleneck|tts]
//	       [-cache none|one-call|optimal] [-k 10] [-parallel -1] [-repeat 1]
//	       [-dot] [-query "..."]
//	       [-template "... $param ..." -bind param=v1 -bind param=v2 ...]
//
// Without -query the world's canonical query is used (the paper's
// Figure 3 for the travel world).
//
// With -template, the query is a parameterized template and each
// -bind flag supplies one binding set ("name=value,name2=value2");
// all bindings are optimized through a shared template-level plan
// cache, demonstrating that N bindings cost one branch-and-bound
// search plus N cheap cost phases. Each binding line shows the
// value-sensitive estimate next to the uniform-model cost, so skew
// picked up by the profiled histograms is directly visible (try
// -world zipf, whose catalog tags follow a Zipf law).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"mdq/internal/card"
	"mdq/internal/cost"
	"mdq/internal/cq"
	"mdq/internal/opt"
	"mdq/internal/schema"
	"mdq/internal/service"
	"mdq/internal/simweb"
)

// bindList collects repeated -bind flags, one binding set each.
type bindList []string

func (b *bindList) String() string     { return strings.Join(*b, "; ") }
func (b *bindList) Set(s string) error { *b = append(*b, s); return nil }

func main() {
	var binds bindList
	var (
		worldName = flag.String("world", "travel", "built-in world: travel, bio, mashup or zipf")
		metric    = flag.String("metric", "etm", "cost metric: etm, rr, sum, bottleneck, tts")
		cache     = flag.String("cache", "one-call", "caching model: none, one-call, optimal")
		k         = flag.Int("k", 10, "number of answers to optimize for (0 = all)")
		queryText = flag.String("query", "", "query in datalog-like syntax (default: the world's canonical query)")
		tplText   = flag.String("template", "", "parameterized query template with $param placeholders")
		dot       = flag.Bool("dot", false, "print the plan in Graphviz DOT instead of ASCII")
		verbose   = flag.Bool("v", false, "also list alternative plans")
		parallel  = flag.Int("parallel", opt.AutoParallelism, "optimizer search workers (-1 = one per CPU, 1 = sequential)")
		repeat    = flag.Int("repeat", 1, "optimize the query N times through a shared plan cache (shows cache effectiveness)")
	)
	flag.Var(&binds, "bind", "binding set for -template as name=value[,name=value...]; repeatable")
	flag.Parse()

	reg, text, err := simweb.World(*worldName, simweb.TravelOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if *queryText != "" {
		text = *queryText
	}
	m, ok := cost.ByName(*metric)
	if !ok {
		log.Fatalf("unknown metric %q", *metric)
	}
	mode, ok := card.ModeByName(*cache)
	if !ok {
		log.Fatalf("unknown cache mode %q", *cache)
	}
	sch, err := reg.Schema()
	if err != nil {
		log.Fatal(err)
	}

	o := &opt.Optimizer{
		Metric:       m,
		Estimator:    card.Config{Mode: mode},
		K:            *k,
		ChooseMethod: reg.MethodChooser(),
		Parallelism:  *parallel,
		Epochs:       reg,
	}
	if *verbose {
		o.KeepAlternatives = 10
	}

	if *tplText != "" {
		optimizeTemplate(o, reg, sch, *tplText, binds, *dot, m)
		return
	}

	q, err := cq.Parse(text)
	if err != nil {
		log.Fatal(err)
	}
	if err := q.Resolve(sch); err != nil {
		log.Fatal(err)
	}

	var pc *opt.PlanCache
	if *repeat > 1 {
		pc = opt.NewPlanCache(16)
		o.Cache = pc
	}
	start := time.Now()
	res, err := o.Optimize(q)
	if err != nil {
		log.Fatal(err)
	}
	firstTime := time.Since(start)
	for i := 1; i < *repeat; i++ {
		if res, err = o.Optimize(q); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("query: %s\n\n", q)
	if *dot {
		fmt.Print(res.Best.DOT())
	} else {
		fmt.Print(res.Best.ASCII())
	}
	fmt.Printf("\n%s cost: %.2f  (feasible for k=%d: %v, estimated answers: %.1f)\n",
		m.Name(), res.Cost, *k, res.Feasible, res.Best.OutputNode().TOut)
	if uni := o.UniformCost(res); uni != res.Cost {
		fmt.Printf("uniform-model cost: %.2f (value distributions moved the estimate %.1f×)\n",
			uni, res.Cost/uni)
	}
	fmt.Printf("search: %d/%d permissible assignments, %d states (%d pruned), %d plans costed, %d fetch vectors (%v, parallel=%d)\n",
		res.Stats.PermissibleAssignments, res.Stats.CandidateAssignments,
		res.Stats.StatesVisited, res.Stats.StatesPruned, res.Stats.Leaves, res.Stats.FetchVectors,
		firstTime.Round(time.Millisecond), *parallel)
	if pc != nil {
		cs := pc.Stats()
		fmt.Printf("plan cache: %d hits, %d misses over %d optimizations (last served from cache: %v)\n",
			cs.Hits, cs.Misses, *repeat, res.Cached)
	}
	if *verbose {
		fmt.Println("\nalternatives:")
		for i, alt := range res.Alternatives {
			fmt.Printf("  %2d. %-60s %8.2f\n", i+1, alt.Plan.Describe(), alt.Cost)
		}
	}
	os.Exit(0)
}

// optimizeTemplate drives the template-level cache: every -bind set
// is bound, resolved and optimized through one shared cache; the
// counters afterwards show one search serving all bindings.
func optimizeTemplate(o *opt.Optimizer, reg *service.Registry, sch *schema.Schema, text string, binds bindList, dot bool, m cost.Metric) {
	tpl, err := cq.ParseTemplate(text)
	if err != nil {
		log.Fatal(err)
	}
	if len(binds) == 0 {
		log.Fatalf("-template requires at least one -bind (parameters: %v)", tpl.Params())
	}
	pc := opt.NewPlanCache(64)
	o.Cache = pc
	o.CacheSalt = reg.CacheSalt()
	reg.SubscribeEpochs(pc, pc.InvalidateService)
	for i, b := range binds {
		values, err := cq.ParseBindings(b)
		if err != nil {
			log.Fatal(err)
		}
		q, err := tpl.Bind(values)
		if err != nil {
			log.Fatal(err)
		}
		if err := q.Resolve(sch); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := o.OptimizeTemplate(q)
		if err != nil {
			log.Fatal(err)
		}
		took := time.Since(start)
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
		fmt.Printf("binding %d (%s): %s  %s cost %.2f (uniform %.2f)  [%s, %v]\n",
			i+1, b, res.Best.Describe(), m.Name(), res.Cost, o.UniformCost(res),
			how, took.Round(time.Microsecond))
		if i == 0 {
			fmt.Println()
			if dot {
				fmt.Print(res.Best.DOT())
			} else {
				fmt.Print(res.Best.ASCII())
			}
			fmt.Println()
		}
	}
	cs := pc.Stats()
	fmt.Printf("\ntemplate cache: %d searches for %d bindings (%d template hits, %d revalidations, %d divergences, %d borrowed serves, %d binding classes)\n",
		cs.Searches, len(binds), cs.TemplateHits, cs.Revalidations, cs.Divergences, cs.BorrowedServes, cs.Classes)
	os.Exit(0)
}
