package opt

import (
	"fmt"
	"math"

	"mdq/internal/cq"
	"mdq/internal/fetch"
	"mdq/internal/plan"
)

// DefaultRevalidateRatio is the cost-divergence bound used when
// Optimizer.RevalidateRatio is unset: a template skeleton whose
// re-estimated cost is more than 4× (or less than ¼ of) the cost
// recorded at its last full search is considered diverged and a
// fresh branch-and-bound runs.
//
// Divergence has two independent sources, both priced by the same
// re-cost phase: statistics drift (a service's profile was refreshed
// since the search) and binding drift (the new constants hit a very
// different region of a profiled value distribution). A worked
// example of the second, on the simweb Zipf world (catalog tags
// follow a Zipf law, value distributions profiled at registration):
//
//	tpl: q(Item, Score) :- catalog($tag, Item), review(Item, Score), Score >= 4.
//
//	bind tag=tag-00  → miss: full search. Plan catalog→review, cost
//	                   C₀ ≈ 104 (the head tag matches ~29% of the
//	                   catalog). Skeleton cached with baseCost C₀.
//	bind tag=tag-01  → template hit: skeleton rebuilt for tag-01,
//	                   re-cost C₁ ≈ C₀/2 (frequency ratio 2^1.1).
//	                   C₀/C₁ < 4 ⇒ served, its own cost reported.
//	bind tag=tag-49  → re-cost C₄₉ ≈ C₀/50 (tail of the Zipf law).
//	                   C₀/C₄₉ > 4 ⇒ noteDivergence drops the entry, a
//	                   full search runs (the tail tag may even prefer
//	                   a different plan), and its result re-seeds the
//	                   template entry with baseCost C₄₉.
//
// Under the uniform model (Config.NoValueStats) every binding
// re-costs to exactly baseCost and the fallback never fires — which
// is why it effectively did not fire before value distributions
// existed.
//
// Baselines are kept per *binding class* (see Optimizer.bindingClass
// and classSlot): bindings are bucketed by MCV membership and the
// log-ratio band of the selectivity their constants price to, and
// each class keeps its own skeleton and cost baseline. A workload
// alternating between bindings whose costs sit more than the ratio
// apart (head and tail of a heavy Zipf law) therefore pays at most
// one search per class — often zero, since a new class first borrows
// a neighbor's skeleton and, when the re-cost lands within the
// ratio, seeds its own baseline from it — instead of re-seeding a
// single scalar on every flip.
const DefaultRevalidateRatio = 4.0

func (o *Optimizer) revalidateRatio() float64 {
	if o.RevalidateRatio <= 1 {
		return DefaultRevalidateRatio
	}
	return o.RevalidateRatio
}

// epochVector snapshots the statistics epoch of every service the
// query touches (0 when no epoch source is wired — push invalidation
// then keys off the service names alone).
func (o *Optimizer) epochVector(q *cq.Query) map[string]uint64 {
	m := make(map[string]uint64, len(q.Atoms))
	for _, a := range q.Atoms {
		if _, ok := m[a.Service]; ok {
			continue
		}
		var e uint64
		if o.Epochs != nil {
			e = o.Epochs.Epoch(a.Service)
		}
		m[a.Service] = e
	}
	return m
}

// distVector snapshots the value-distribution fingerprint of every
// service the query touches, when the epoch source can provide them
// (service.Registry implements FingerprintSource). Template cache
// entries carry the vector so that, serialized and shipped to another
// process, the importing cache can check its local statistics against
// the exporter's before serving the skeleton fresh.
func (o *Optimizer) distVector(q *cq.Query) map[string]string {
	src, ok := o.Epochs.(FingerprintSource)
	if !ok {
		return nil
	}
	m := make(map[string]string, len(q.Atoms))
	for _, a := range q.Atoms {
		if _, ok := m[a.Service]; ok {
			continue
		}
		m[a.Service] = src.DistFingerprint(a.Service)
	}
	return m
}

// OptimizeTemplate optimizes a bound query through the template level
// of the plan cache: queries that differ only in constant values (the
// bindings of one cq.Template) share one cache entry holding the
// winning plan skeleton of one branch-and-bound search. It is
// ServeTemplate and, on a miss, Optimize plus storing the search's
// TemplateEntry — the three steps a fleet runs apart (a worker serves,
// the coordinator searches and ships the entry; dist.Coordinator).
//
// Without a cache this is exactly Optimize. Alternatives
// (KeepAlternatives) are only populated by full searches, never by
// template hits.
func (o *Optimizer) OptimizeTemplate(q *cq.Query) (*Result, error) {
	if o.Cache == nil {
		return o.Optimize(q)
	}
	if res, err := o.ServeTemplate(q); res != nil || err != nil {
		return res, err
	}
	res, err := o.Optimize(q)
	if err != nil {
		return nil, err
	}
	entry := o.TemplateEntry(q, res)
	res.BindingClass = entry.Class
	o.Cache.installTemplate(entry, false)
	return res, nil
}

// ServeTemplate serves q from its template's cache entry: only the
// cheap cost phase runs — the cached skeleton is rebuilt for the new
// bindings and phase 3 re-estimates selectivities and fetch factors
// under the current statistics. It returns (nil, nil) on a miss: no
// entry, or a re-estimated cost beyond RevalidateRatio of the
// skeleton's baseline (statistics or bindings drifted so far the
// structure is suspect; the class slot is then already dropped).
func (o *Optimizer) ServeTemplate(q *cq.Query) (*Result, error) {
	for _, a := range q.Atoms {
		if a.Sig == nil {
			return nil, fmt.Errorf("opt: query %s is not resolved against a schema", q.Name)
		}
	}
	// The budget gate applies to template serving too: even a cheap
	// re-cost must not run for a query whose deadline already passed.
	if err := o.budgetErr(); err != nil {
		return nil, err
	}
	csp := o.Span.Child("opt.cache.template")
	tkey := o.templateKey(q)
	class := o.bindingClass(q)
	csp.Set("binding_class", class)
	if tv, ok := o.Cache.lookupTemplate(tkey, class); ok {
		if res := o.recost(q, tkey, class, tv); res != nil {
			if csp != nil {
				if res.Revalidated {
					csp.Set("class", "revalidated")
				} else {
					csp.Set("class", "template")
				}
				if tv.borrowed {
					csp.Set("borrowed_from", tv.class)
				}
				csp.End()
			}
			res.BindingClass = class
			return res, nil
		}
	}
	if csp != nil {
		csp.Set("class", "miss")
		csp.End()
	}
	return nil, nil
}

// TemplateEntry renders a completed search's winner as the cache entry
// of q's template and binding class under the current epoch and
// fingerprint vectors — what the searching process stores and a
// coordinator ships to its workers. Only the skeleton and the effort
// counters travel: hits rebuild the plan from the bound query.
func (o *Optimizer) TemplateEntry(q *cq.Query, res *Result) TemplateWireEntry {
	w := TemplateWireEntry{
		Key:      o.templateKey(q),
		Class:    o.bindingClass(q),
		Topology: res.Best.Topology.Clone(),
		BaseCost: res.Cost,
		Feasible: res.Feasible,
		Stats:    res.Stats,
		Epochs:   o.epochVector(q),
		Dists:    o.distVector(q),
	}
	for _, p := range res.Best.Assignment {
		w.Assignment = append(w.Assignment, p.String())
	}
	return w
}

// recost runs the cheap phase of a template hit: rebuild the cached
// skeleton against the bound query, assign fetch factors under the
// current statistics, and accept the plan when its cost stayed within
// the revalidation ratio of the binding class's baseline (a borrowed
// neighbor class's baseline when this class has no slot yet; its
// accepted re-cost then seeds the class). Returns nil when the caller
// must fall back to a full search (the class slot is then already
// dropped — other classes keep theirs).
func (o *Optimizer) recost(q *cq.Query, key, class string, tv templateView) *Result {
	if len(tv.asn) != len(q.Atoms) {
		o.Cache.noteDivergence(key, class, tv.borrowed)
		return nil
	}
	p, err := plan.Build(q, tv.asn, tv.topo, plan.Options{ChooseMethod: o.ChooseMethod})
	if err != nil {
		o.Cache.noteDivergence(key, class, tv.borrowed)
		return nil
	}
	if err := p.Validate(); err != nil {
		o.Cache.noteDivergence(key, class, tv.borrowed)
		return nil
	}
	assigner := &fetch.Assigner{
		Estimator: o.Estimator,
		Metric:    o.metric(),
		K:         o.K,
		Heuristic: o.FetchHeuristic,
	}
	fr := assigner.Assign(p)
	feasible := fr.Feasible || o.K <= 0
	if !feasible && tv.feasible {
		// The skeleton reached k under the old statistics but no
		// longer does: the structure itself is stale.
		o.Cache.noteDivergence(key, class, tv.borrowed)
		return nil
	}
	if costDiverged(fr.Cost, tv.baseCost, o.revalidateRatio()) {
		o.Cache.noteDivergence(key, class, tv.borrowed)
		return nil
	}
	o.Cache.noteTemplateServed(key, class, tv, fr.Cost, feasible, o.epochVector(q), o.distVector(q))
	return &Result{
		Best:        p,
		Cost:        fr.Cost,
		Feasible:    feasible,
		Stats:       tv.stats,
		Cached:      true,
		TemplateHit: true,
		Revalidated: tv.stale,
	}
}

// costDiverged reports whether the re-estimated cost left the
// [base/ratio, base·ratio] band around the baseline.
func costDiverged(got, base, ratio float64) bool {
	if math.IsInf(got, 1) || math.IsInf(base, 1) {
		return got != base
	}
	if got <= 0 || base <= 0 {
		return got != base
	}
	r := got / base
	if r < 1 {
		r = 1 / r
	}
	return r > ratio
}
