// Package workload generates the benchmark's four request lists from
// a seed. The seed only shapes the list: servers see requests, never
// the seed or the workload's name.
package workload

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"mdq/internal/simweb"
)

// TravelTemplate is the flight ⋈ hotel ⋈ conf template the load gate
// of cmd/mdqbench drives (a package main, so the text is repeated
// here), with the hotel category as the binding.
const TravelTemplate = `
q(Conf, City, Hotel, HPrice, FPrice) :-
    flight('Milano', City, Start, End, StartTime, EndTime, FPrice),
    hotel(Hotel, City, $cat, Start, End, HPrice),
    conf('DB', Conf, Start, End, City),
    FPrice + HPrice < 2000 {0.01}.`

// Categories are the travel world's hotel categories, the four
// bindings of the hot workloads.
var Categories = []string{"luxury", "standard", "budget", "hostel"}

// Metrics are the cost metrics cold_search varies.
var Metrics = []string{"etm", "rr", "sum", "bottleneck", "tts"}

const (
	// ColdMaxK bounds the k axis of the cold_search family: 5 metrics
	// × k ∈ 1..ColdMaxK = 100 pairwise distinct plan-cache keys.
	ColdMaxK = 20
	// ColdPerSecond sizes the count-bounded cold_search list from the
	// run length: a search request takes 0.35–2 s on the 2-vCPU
	// reference box, so 1.5 keys per second fills the window.
	ColdPerSecond = 1.5
	// ColdWarmup is the number of extra keys (k above ColdMaxK, so
	// outside the family) sent before the measured list: enough to
	// open the connection and grow the server's heap to search size.
	ColdWarmup = 2

	hotListLen  = 4096
	zipfListLen = 8192
	zipfTags    = 50
	zipfS       = 1.1
)

// Request is one POST /query body.
type Request struct {
	Template string
	// Param and Value are the single template binding.
	Param, Value string
	// Metric is empty for the server default (etm).
	Metric string
	K      int
}

// Body renders the request as the JSON the server decodes. The field
// order is fixed, so equal requests are equal bytes.
func (r Request) Body() []byte {
	var b strings.Builder
	b.WriteString(`{"template":`)
	b.Write(mustJSON(r.Template))
	b.WriteString(`,"bindings":{`)
	b.Write(mustJSON(r.Param))
	b.WriteByte(':')
	b.Write(mustJSON(r.Value))
	b.WriteByte('}')
	if r.Metric != "" {
		b.WriteString(`,"metric":`)
		b.Write(mustJSON(r.Metric))
	}
	fmt.Fprintf(&b, `,"k":%d}`, r.K)
	return []byte(b.String())
}

func mustJSON(s string) []byte {
	out, err := json.Marshal(s)
	if err != nil {
		panic(err) // strings always marshal
	}
	return out
}

// AnswerKey identifies the request's answer set: the bound query,
// without the knobs (metric, k) that pick a plan and a prefix of it.
func (r Request) AnswerKey() string {
	return r.Template + "\x00" + r.Param + "\x00" + r.Value
}

// CacheKey identifies what the plan cache can share between requests:
// the template and the knobs, without the binding.
func (r Request) CacheKey() string {
	return fmt.Sprintf("%s\x00%s\x00%d", r.Template, r.Metric, r.K)
}

// Spec is the fixed part of a workload: what is started and how it is
// driven.
type Spec struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// World is the -world of every server process.
	World string
	// Workers is the number of mdqworker processes behind the
	// coordinator; 0 drives a single mdqserve.
	Workers int
	// Clients is the closed loop's concurrency (at most 2: nproc).
	Clients int
	// Warmup is how many requests from the head of the list are sent
	// before the measured window.
	Warmup int
	// CountBounded workloads send every request after the warm-up
	// exactly once; the others cycle over the list until time is up.
	CountBounded bool
	// TracedPrefix is how many requests after the warm-up a traced run
	// replays, one at a time, through both the real fleet and the
	// in-process replica.
	TracedPrefix int
}

// Specs lists the workloads in report order.
var Specs = []Spec{
	{Name: "hot_single", World: "travel", Clients: 2, Warmup: 200, TracedPrefix: 400,
		Why: "4 bindings of one template fit every cache tier, so search is idle: the per-request overhead floor of serve, cq, re-cost, cached exec and JSON"},
	{Name: "cold_search", World: "travel", Clients: 1, Warmup: ColdWarmup, CountBounded: true, TracedPrefix: 3,
		Why: "every request is a new (metric, k) plan-cache key sent once, so no cache tier helps and the three-phase search owns the time"},
	{Name: "fleet_hot", World: "travel", Workers: 2, Clients: 2, Warmup: 40, TracedPrefix: 24,
		Why: "hot_single's request list through a coordinator and 2 workers over loopback: the difference to hot_single is the dist layer"},
	{Name: "zipf_exec", World: "zipf", Clients: 2, Warmup: 500, TracedPrefix: 600,
		Why: "Zipf(1.1) bindings over 50 tags churn the result cache and revalidate plans, so exec streaming, rescache and invalidation dominate"},
}

// Workload is a spec with its generated request list.
type Workload struct {
	Spec
	// Requests holds the warm-up requests followed by the measured
	// ones.
	Requests []Request
}

// Measured returns the requests after the warm-up.
func (w *Workload) Measured() []Request { return w.Requests[w.Warmup:] }

// Lookup returns the named spec.
func Lookup(name string) (Spec, bool) {
	for _, s := range Specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Generate builds the named workload's request list. The same (name,
// seed, seconds) always yields the same list; seconds only sizes the
// count-bounded cold_search.
func Generate(name string, seed uint64, seconds int) (*Workload, error) {
	spec, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q", name)
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	w := &Workload{Spec: spec}
	switch name {
	case "hot_single", "fleet_hot":
		w.Requests = hotList(rng)
	case "cold_search":
		w.Requests = coldList(rng, seconds)
	case "zipf_exec":
		w.Requests = zipfList(rng)
	}
	return w, nil
}

// hotList concatenates seeded permutations of the four categories, so
// every cycle of four requests covers every binding once.
func hotList(rng *rand.Rand) []Request {
	out := make([]Request, 0, hotListLen)
	cats := append([]string(nil), Categories...)
	for len(out) < hotListLen {
		rng.Shuffle(len(cats), func(i, j int) { cats[i], cats[j] = cats[j], cats[i] })
		for _, c := range cats {
			out = append(out, Request{Template: TravelTemplate, Param: "cat", Value: c, K: 5})
		}
	}
	return out
}

// ColdFamily returns the measured keys of cold_search for a run
// length, in canonical order: the same keys for every seed, spread
// evenly over the k axis of each metric, so runs differ in order
// only.
func ColdFamily(seconds int) []Request {
	perMetric := int(ColdPerSecond*float64(seconds)+0.5) / len(Metrics)
	if perMetric < 2 {
		perMetric = 2
	}
	if perMetric > ColdMaxK {
		perMetric = ColdMaxK
	}
	var out []Request
	for _, m := range Metrics {
		for i := 0; i < perMetric; i++ {
			k := 1 + (i*(ColdMaxK-1)+(perMetric-1)/2)/(perMetric-1)
			out = append(out, Request{Template: TravelTemplate, Param: "cat", Value: Categories[0], Metric: m, K: k})
		}
	}
	return out
}

func coldList(rng *rand.Rand, seconds int) []Request {
	out := make([]Request, 0, ColdWarmup)
	for i := 0; i < ColdWarmup; i++ {
		out = append(out, Request{Template: TravelTemplate, Param: "cat", Value: Categories[0],
			Metric: Metrics[i%len(Metrics)], K: ColdMaxK + 1 + i})
	}
	fam := ColdFamily(seconds)
	rng.Shuffle(len(fam), func(i, j int) { fam[i], fam[j] = fam[j], fam[i] })
	return append(out, fam...)
}

// zipfList draws the $tag binding Zipf(1.1) over the zipf world's 50
// tags, the law its catalog rows follow.
func zipfList(rng *rand.Rand) []Request {
	z := rand.NewZipf(rng, zipfS, 1, zipfTags-1)
	out := make([]Request, zipfListLen)
	for i := range out {
		out[i] = Request{Template: simweb.ZipfTemplateText, Param: "tag", Value: simweb.ZipfTag(int(z.Uint64())), K: 10}
	}
	return out
}

// Distinct returns one request per answer key, in first-seen order.
func Distinct(reqs []Request) []Request {
	seen := map[string]bool{}
	var out []Request
	for _, r := range reqs {
		if k := r.AnswerKey(); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// Names returns the workload names in report order.
func Names() []string {
	out := make([]string, len(Specs))
	for i, s := range Specs {
		out[i] = s.Name
	}
	return out
}
