package opt

import (
	"strconv"
	"strings"
	"sync"
	"time"

	"mdq/internal/abind"
	"mdq/internal/bounded"
	"mdq/internal/cq"
	"mdq/internal/plan"
)

// EpochSource reports the current statistics epoch of a service —
// the counter service.Registry bumps on every in-place statistics
// refresh. The optimizer snapshots an epoch vector into each cache
// entry so staleness is detectable per service instead of per
// registry.
type EpochSource interface {
	Epoch(service string) uint64
}

// Policy configures the cache's eviction behavior for long-running
// servers. The zero value of MaxBytes and TTL disables the
// respective policy; Capacity ≤ 0 defaults to 128 entries.
//
// The three limits compose independently and each eviction is
// attributed to its cause in CacheStats (EvictedLRU / EvictedBytes /
// EvictedTTL; epoch-driven drops count as EvictedEpoch):
//
//   - Capacity is the hard entry count — the least recently used
//     entry goes first when it overflows;
//   - MaxBytes approximates retained memory (plan graphs dominate;
//     see entrySize) and also evicts from the LRU tail;
//   - TTL is a freshness bound rather than a memory bound: it caps
//     how long a plan can outlive the statistics window it was
//     computed in even if epochs never move (e.g. no observers are
//     installed, so nothing ever bumps).
type Policy struct {
	// Capacity bounds the number of entries (LRU beyond it).
	Capacity int
	// MaxBytes bounds the approximate retained size of all cached
	// results; the least recently used entries are dropped until the
	// budget holds.
	MaxBytes int64
	// TTL expires entries by age regardless of use, so a plan can
	// never outlive the statistics window it was computed in by more
	// than the TTL.
	TTL time.Duration
}

// PlanCache is a thread-safe cache of optimization results with two
// kinds of entries:
//
//   - exact entries, keyed by the canonical query signature
//     (cq.Query.CanonicalKey) plus the optimizer's knobs: a hit
//     returns the memoized result verbatim (deep-copied);
//   - template entries, keyed by the constant-masked template
//     signature (cq.Query.TemplateKey) plus the same knobs: a hit
//     returns the winning plan *skeleton* (access-pattern assignment
//     and topology) of one branch-and-bound search, which the
//     optimizer rebuilds and re-costs for the new bindings — many
//     bindings, one search.
//
// Every entry carries the statistics-epoch vector of its services:
// map[service]epoch as of the entry's last (re)validation, where an
// epoch is the counter service.Registry.BumpEpoch advances on every
// in-place statistics refresh. When a service's statistics are
// refreshed (see service.Registry.BumpEpoch), InvalidateService
// drops the exact entries touching it — their keys embed the stale
// statistics and can never be hit again — and marks template entries
// stale, to be revalidated against the fresh statistics on their
// next hit.
//
// A template entry holds one skeleton+baseline slot per *binding
// class* — a bucket over where the bindings' constants sit in the
// profiled value distributions (Optimizer.bindingClass) — so hot and
// cold bindings of one template keep separate cost baselines instead
// of thrashing a single scalar. Each class slot moves through a small
// state machine (driven by Optimizer.OptimizeTemplate; see
// template.go for a worked example), with staleness tracked at the
// entry level:
//
//	         installTemplate (full search)
//	absent ─────────────────────────────► fresh
//	absent ── neighbor class's re-cost ──► fresh  (borrowed serve seeds
//	          accepted within ratio               the class, no search)
//	fresh  ── epoch bump ───────────────► stale
//	fresh  ── hit, re-cost within ratio ─► fresh  (TemplateHit)
//	stale  ── hit, re-cost within ratio ─► fresh  (TemplateHit+Revalidated)
//	any    ── hit, re-cost beyond ratio ─► absent (divergence → full search;
//	                                               other classes unaffected)
//	any    ── TTL / LRU / byte eviction ─► absent (whole entry)
//
// Cached plans are stored frozen: lookups return deep copies, so
// callers may freely re-annotate fetch factors or cardinalities
// without corrupting the cached entry, and concurrent lookups never
// alias each other's plans.
type PlanCache struct {
	mu     sync.Mutex
	policy Policy
	lru    *bounded.LRU[string, *cacheEntry]

	hits, misses   uint64
	templateHits   uint64
	revalidations  uint64
	divergences    uint64
	borrowedServes uint64
	searches       uint64
	evictLRU       uint64
	evictTTL       uint64
	evictBytes     uint64
	evictEpoch     uint64
}

// entryKind discriminates cache entries.
type entryKind int

const (
	exactEntry entryKind = iota
	templateEntry
)

func (k entryKind) String() string {
	if k == templateEntry {
		return "template"
	}
	return "exact"
}

// classSlot is one binding class's baseline inside a template entry:
// the plan skeleton (assignment + topology, enough to rebuild the
// plan for any binding with one plan.Build plus one fetch
// assignment) and the cost its re-costs are compared against. Binding
// classes partition a template's bindings by where their constants
// sit in the profiled value distributions (Optimizer.bindingClass),
// so a workload alternating between hot and cold bindings — the head
// and tail of a Zipf law — keeps one stable baseline per class
// instead of re-seeding a single scalar on every flip.
type classSlot struct {
	asn  abind.Assignment
	topo *plan.Topology
	// baseCost is the cost of the skeleton when the class was seeded
	// (a full search, or an accepted re-cost borrowed from a
	// neighboring class), the reference the revalidation ratio
	// compares against.
	baseCost float64
	feasible bool
	// stats are the effort counters of the search that produced the
	// skeleton (shared verbatim by classes seeded via borrowing).
	stats Stats
	hits  uint64
}

// cacheEntry is one LRU slot.
type cacheEntry struct {
	kind entryKind
	res  *Result // exact entries: the memoized result
	// classes holds the per-binding-class skeletons and baselines of a
	// template entry; lastClass names the most recently seeded or
	// served class, the preferred lender when a new class borrows.
	classes   map[string]*classSlot
	lastClass string
	// baseCost/feasible mirror the result's cost for exact entries
	// (introspection; template entries keep these per class).
	baseCost float64
	feasible bool
	// epochs maps each service of the query to its statistics epoch
	// when the entry was (re)validated.
	epochs map[string]uint64
	// dists maps each service of the query to the fingerprint of its
	// per-attribute value distributions when the entry was
	// (re)validated (template entries only; empty string when the
	// service has no value statistics). Serialized entries carry it so
	// an importing cache can check whether its local statistics agree
	// with the exporter's.
	dists map[string]string
	// stale marks a template entry whose epoch vector lags the
	// current statistics; it is served only after revalidation.
	stale bool
	hits  uint64
}

// NewPlanCache creates a cache holding up to capacity results;
// capacity <= 0 defaults to 128. Byte and TTL limits are off; use
// NewPlanCacheWith to set them.
func NewPlanCache(capacity int) *PlanCache {
	return NewPlanCacheWith(Policy{Capacity: capacity})
}

// NewPlanCacheWith creates a cache with explicit eviction policies.
func NewPlanCacheWith(p Policy) *PlanCache {
	if p.Capacity <= 0 {
		p.Capacity = 128
	}
	c := &PlanCache{policy: p}
	evicted := [...]*uint64{bounded.Entries: &c.evictLRU, bounded.Bytes: &c.evictBytes, bounded.TTL: &c.evictTTL}
	c.lru = bounded.NewLRU[string, *cacheEntry](p.Capacity, p.MaxBytes, p.TTL, func(cause bounded.Cause) {
		*evicted[cause]++
	})
	return c
}

// Get returns a private copy of the cached result for an exact key,
// marking the entry most recently used. Expired entries count as
// misses.
func (c *PlanCache) Get(key string) (*Result, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	it := c.lru.Get(key)
	if it == nil || it.Value.kind != exactEntry {
		c.misses++
		return nil, false
	}
	c.hits++
	it.Value.hits++
	c.lru.Touch(it)
	return copyResult(it.Value.res), true
}

// Put stores a private copy of the result under an exact key,
// evicting least recently used entries when the cache is over its
// entry or byte budget. The epoch vector may be nil when no epoch
// source is wired; push invalidation then cannot match the entry,
// but the key's statistics fingerprint still prevents stale hits.
func (c *PlanCache) Put(key string, res *Result) {
	c.put(key, res, nil)
}

func (c *PlanCache) put(key string, res *Result, epochs map[string]uint64) {
	if c == nil || res == nil {
		return
	}
	e := &cacheEntry{
		kind:     exactEntry,
		res:      copyResult(res),
		baseCost: res.Cost,
		feasible: res.Feasible,
		epochs:   epochs,
	}
	size := entrySize(key, e)
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.lru.Peek(key); old != nil {
		e.hits = old.Value.hits
	}
	c.lru.Put(key, e, size)
}

// upsertClass merges one binding class's slot into the template
// entry for key, creating the entry when absent. stale marks
// imported slots pending revalidation; a fresh full search (stale
// false) clears entry staleness, since the entry's epoch vector was
// just re-snapshotted under the current statistics.
func (c *PlanCache) upsertClass(key, class string, slot *classSlot, epochs map[string]uint64, dists map[string]string, stale bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if it := c.lru.Peek(key); it != nil {
		e := it.Value
		if e.kind == templateEntry {
			e.classes[class] = slot
			e.lastClass = class
			if epochs != nil {
				e.epochs = epochs
			}
			if dists != nil {
				e.dists = dists
			}
			// A fresh full search re-snapshotted the epoch vector under
			// current statistics; a stale import poisons the entry the
			// way whole-entry imports always did.
			e.stale = stale
			c.lru.Touch(it)
			c.lru.Resize(it, entrySize(key, e))
			return
		}
		// Template keys carry the "tpl|" prefix, so an exact entry under
		// the same key cannot occur; replace it if it somehow did.
	}
	e := &cacheEntry{
		kind:      templateEntry,
		classes:   map[string]*classSlot{class: slot},
		lastClass: class,
		epochs:    epochs,
		dists:     dists,
		stale:     stale,
	}
	c.lru.Put(key, e, entrySize(key, e))
}

// templateView is a snapshot of one binding class of a template
// entry, handed to the optimizer's re-cost phase.
type templateView struct {
	asn      abind.Assignment
	topo     *plan.Topology
	baseCost float64
	feasible bool
	stale    bool
	stats    Stats
	// class names the slot the view was read from; borrowed marks a
	// neighboring class's slot standing in because the entry holds
	// nothing for the requested class yet — its accepted re-cost
	// seeds the new class (noteTemplateServed), and its divergence
	// does not condemn the lender (noteDivergence).
	class    string
	borrowed bool
}

// lookupTemplate snapshots the requested binding class of a template
// entry — or, when the entry has never seen that class, a borrowed
// neighbor (preferring the most recently active class) whose
// skeleton is usually right and whose baseline the re-cost phase
// still guards with the ratio check. Counters are not touched — the
// entry is only "hit" once the re-cost phase accepts it (see
// noteTemplateServed), and a fruitless lookup is not counted here
// because the ensuing full search counts its own miss through the
// exact-key Get, keeping one logical optimization at one counter
// tick. Expired entries are dropped.
func (c *PlanCache) lookupTemplate(key, class string) (templateView, bool) {
	if c == nil {
		return templateView{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	it := c.lru.Get(key)
	if it == nil || it.Value.kind != templateEntry || len(it.Value.classes) == 0 {
		return templateView{}, false
	}
	e := it.Value
	from, borrowed := class, false
	slot, ok := e.classes[class]
	if !ok {
		borrowed = true
		from = e.lastClass
		if _, ok := e.classes[from]; !ok {
			// The preferred lender was dropped; fall back to the
			// smallest class key for determinism.
			from = ""
			for k := range e.classes {
				if from == "" || k < from {
					from = k
				}
			}
		}
		slot = e.classes[from]
	}
	return templateView{
		asn:      slot.asn,
		topo:     slot.topo.Clone(),
		baseCost: slot.baseCost,
		feasible: slot.feasible,
		stale:    e.stale,
		stats:    slot.stats,
		class:    from,
		borrowed: borrowed,
	}, true
}

// noteTemplateServed records a successful template hit for a binding
// class: the entry is freshened (epoch vector updated, staleness
// cleared) and counted; a hit on a stale entry additionally counts
// as a revalidation — the lazy path of epoch invalidation. A
// borrowed serve seeds the requested class with the lender's
// skeleton and the accepted re-cost as its own baseline, so the next
// binding of this class compares against its own regime without ever
// paying a full search.
func (c *PlanCache) noteTemplateServed(key, class string, tv templateView, cost float64, feasible bool, epochs map[string]uint64, dists map[string]string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits++
	c.templateHits++
	if tv.stale {
		c.revalidations++
	}
	if tv.borrowed {
		c.borrowedServes++
	}
	it := c.lru.Peek(key)
	if it == nil || it.Value.kind != templateEntry {
		return
	}
	e := it.Value
	e.stale = false
	if epochs != nil {
		e.epochs = epochs
	}
	if dists != nil {
		e.dists = dists
	}
	e.lastClass = class
	e.hits++
	c.lru.Touch(it)
	if tv.borrowed {
		if lender, ok := e.classes[tv.class]; ok {
			e.classes[class] = &classSlot{
				asn:      lender.asn,
				topo:     lender.topo.Clone(),
				baseCost: cost,
				feasible: feasible,
				stats:    lender.stats,
				hits:     1,
			}
			c.lru.Resize(it, entrySize(key, e))
		}
	} else if slot, ok := e.classes[class]; ok {
		slot.hits++
	}
}

// noteDivergence reacts to a template hit whose re-estimated cost
// diverged beyond the optimizer's ratio (or whose skeleton no longer
// builds): the binding class's slot is dropped — other classes keep
// their baselines, so a hot/cold workload no longer thrashes the
// whole entry — and the caller falls back to a full search, whose
// exact-key lookup accounts the miss. A borrowed view diverging says
// nothing about the lender's own class, so nothing is dropped; the
// ensuing search seeds the new class.
func (c *PlanCache) noteDivergence(key, class string, borrowed bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.divergences++
	if borrowed {
		return
	}
	it := c.lru.Peek(key)
	if it == nil {
		return
	}
	e := it.Value
	if e.kind != templateEntry {
		c.lru.Remove(it)
		return
	}
	if _, ok := e.classes[class]; !ok {
		return
	}
	delete(e.classes, class)
	if e.lastClass == class {
		e.lastClass = ""
	}
	if len(e.classes) == 0 {
		c.lru.Remove(it)
		return
	}
	c.lru.Resize(it, entrySize(key, e))
}

// noteSearch counts one full branch-and-bound search run on behalf
// of this cache (i.e. a miss that did real work). Differential tests
// assert amortization through it: N bindings of one template must
// leave Searches at 1.
func (c *PlanCache) noteSearch() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.searches++
	c.mu.Unlock()
}

// InvalidateService reacts to a statistics-epoch bump: exact entries
// that depend on the service are dropped (their keys embed the stale
// statistics fingerprint, so they could never be hit again anyway),
// and template entries are marked stale so their next hit revalidates
// against the fresh statistics. Wire it to the registry with
// Registry.SubscribeEpochs(cache, cache.InvalidateService).
func (c *PlanCache) InvalidateService(name string, epoch uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Each(func(it *bounded.Item[string, *cacheEntry]) bool {
		e := it.Value
		if old, ok := e.epochs[name]; ok && old != epoch {
			if e.kind == templateEntry {
				e.stale = true
				e.epochs[name] = epoch
			} else {
				c.lru.Remove(it)
				c.evictEpoch++
			}
		}
		return true
	})
}

// Len returns the number of cached results.
func (c *PlanCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Purge drops every entry (counters are preserved).
func (c *PlanCache) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Clear()
}

// CacheStats reports cache effectiveness and churn. It is a plain
// comparable value (JSON-friendly for server stats endpoints).
type CacheStats struct {
	// Hits counts served optimizations (template hits included);
	// Misses counts optimizations that found nothing servable and
	// had to search. A template lookup that falls back to the full
	// search counts once, through the search's exact-key lookup.
	Hits, Misses uint64
	// TemplateHits counts hits served from a template entry by
	// re-costing the cached skeleton for new bindings.
	TemplateHits uint64
	// Revalidations counts template hits that first had to
	// revalidate a stale epoch vector against fresh statistics.
	Revalidations uint64
	// Divergences counts template class slots discarded because the
	// re-estimated cost drifted beyond the revalidation ratio (plus
	// borrowed serves that diverged without condemning their lender).
	Divergences uint64
	// BorrowedServes counts template hits served from a neighboring
	// binding class's baseline because the requested class had no slot
	// yet; each one seeds the requested class without a full search.
	BorrowedServes uint64
	// Classes totals the binding-class slots across template entries
	// (≥ the number of template entries).
	Classes int
	// Searches counts full branch-and-bound runs performed on behalf
	// of this cache (misses that did real work).
	Searches uint64
	// Eviction counters by cause.
	EvictedLRU, EvictedTTL, EvictedBytes, EvictedEpoch uint64
	// Occupancy.
	Size, Cap int
	Bytes     int64
	MaxBytes  int64
}

// Stats returns a snapshot of the counters and occupancy.
func (c *PlanCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	classes := 0
	c.lru.Each(func(it *bounded.Item[string, *cacheEntry]) bool {
		classes += len(it.Value.classes)
		return true
	})
	return CacheStats{
		Hits:           c.hits,
		Misses:         c.misses,
		TemplateHits:   c.templateHits,
		Revalidations:  c.revalidations,
		Divergences:    c.divergences,
		BorrowedServes: c.borrowedServes,
		Classes:        classes,
		Searches:       c.searches,
		EvictedLRU:     c.evictLRU,
		EvictedTTL:     c.evictTTL,
		EvictedBytes:   c.evictBytes,
		EvictedEpoch:   c.evictEpoch,
		Size:           c.lru.Len(),
		Cap:            c.policy.Capacity,
		Bytes:          c.lru.Bytes(),
		MaxBytes:       c.policy.MaxBytes,
	}
}

// EntryInfo describes one cache entry for introspection endpoints
// (mdqserve GET /cache).
type EntryInfo struct {
	Key      string            `json:"key"`
	Kind     string            `json:"kind"`
	Cost     float64           `json:"cost"`
	Feasible bool              `json:"feasible"`
	Epochs   map[string]uint64 `json:"epochs,omitempty"`
	// Classes maps each binding class of a template entry to its
	// baseline cost (absent on exact entries).
	Classes    map[string]float64 `json:"classes,omitempty"`
	Stale      bool               `json:"stale"`
	Hits       uint64             `json:"hits"`
	Bytes      int64              `json:"bytes"`
	AgeSeconds float64            `json:"age_seconds"`
}

// Entries snapshots every entry, most recently used first.
func (c *PlanCache) Entries() []EntryInfo {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.lru.Clock()
	out := make([]EntryInfo, 0, c.lru.Len())
	c.lru.Each(func(it *bounded.Item[string, *cacheEntry]) bool {
		e := it.Value
		var epochs map[string]uint64
		if len(e.epochs) > 0 {
			epochs = make(map[string]uint64, len(e.epochs))
			for k, v := range e.epochs {
				epochs[k] = v
			}
		}
		info := EntryInfo{
			Key:        it.Key,
			Kind:       e.kind.String(),
			Cost:       e.baseCost,
			Feasible:   e.feasible,
			Epochs:     epochs,
			Stale:      e.stale,
			Hits:       e.hits,
			Bytes:      it.Size,
			AgeSeconds: now.Sub(it.Added).Seconds(),
		}
		if len(e.classes) > 0 {
			info.Classes = make(map[string]float64, len(e.classes))
			for cls, s := range e.classes {
				info.Classes[cls] = s.baseCost
			}
			// Report the active class's baseline as the entry cost.
			if s, ok := e.classes[e.lastClass]; ok {
				info.Cost = s.baseCost
				info.Feasible = s.feasible
			}
		}
		out = append(out, info)
		return true
	})
	return out
}

// entrySize approximates the retained size of an entry: the key, the
// plan graphs (nodes dominate) and the fixed bookkeeping. It feeds
// the MaxBytes budget; precision matters less than monotonicity in
// plan size.
func entrySize(key string, e *cacheEntry) int64 {
	const (
		entryOverhead = 256
		nodeSize      = 192
	)
	size := int64(entryOverhead + len(key))
	planSize := func(p *plan.Plan) int64 {
		if p == nil {
			return 0
		}
		return int64(len(p.Nodes)) * nodeSize
	}
	if e.res != nil {
		size += planSize(e.res.Best)
		for _, a := range e.res.Alternatives {
			size += planSize(a.Plan)
		}
	}
	for cls, s := range e.classes {
		size += 64 + int64(len(cls)) + int64(len(s.asn))*16
		if s.topo != nil {
			size += int64(s.topo.Size()) * 24
		}
	}
	size += int64(len(e.epochs)) * 32
	size += int64(len(e.dists)) * 48
	return size
}

// copyResult deep-copies the plan graphs of a result so cached
// entries and returned values never share mutable nodes. Stats and
// costs are value types; queries, atoms and predicates stay shared
// (they are read-only after resolution).
func copyResult(r *Result) *Result {
	cp := *r
	if r.Best != nil {
		cp.Best = r.Best.Clone()
	}
	if r.Alternatives != nil {
		cp.Alternatives = make([]Scored, len(r.Alternatives))
		for i, a := range r.Alternatives {
			cp.Alternatives[i] = Scored{Plan: a.Plan.Clone(), Cost: a.Cost, Feasible: a.Feasible}
		}
	}
	return &cp
}

// knobKey fingerprints every optimizer knob that changes the search
// outcome: metric, K, estimator configuration, exhaustiveness,
// alternatives, state budget and the caller-provided salt.
// ChooseMethod and a custom DefaultSelectivity function cannot be
// fingerprinted — callers that vary them across optimizations over
// one shared cache must disambiguate via CacheSalt.
func (o *Optimizer) knobKey() string {
	var b strings.Builder
	b.WriteString("||m=")
	b.WriteString(o.metric().Name())
	b.WriteString(";k=")
	b.WriteString(strconv.Itoa(o.K))
	b.WriteString(";fh=")
	b.WriteString(strconv.Itoa(int(o.FetchHeuristic)))
	b.WriteString(";cm=")
	b.WriteString(strconv.Itoa(int(o.Estimator.Mode)))
	b.WriteString(";ej=")
	b.WriteString(strconv.FormatFloat(o.Estimator.DefaultEquiJoin, 'g', -1, 64))
	if o.Estimator.DefaultSelectivity != nil {
		b.WriteString(";sel=custom")
	}
	if o.Estimator.NoValueStats {
		b.WriteString(";nv")
	}
	if o.Exhaustive {
		b.WriteString(";x")
	}
	b.WriteString(";alt=")
	b.WriteString(strconv.Itoa(o.KeepAlternatives))
	b.WriteString(";ms=")
	b.WriteString(strconv.Itoa(o.maxStates()))
	if o.CacheSalt != "" {
		b.WriteString(";salt=")
		b.WriteString(o.CacheSalt)
	}
	return b.String()
}

// cacheKey composes the exact cache key for a query under this
// optimizer's settings: the canonical query signature (atoms,
// constants, patterns, statistics) plus the knob fingerprint, plus
// the shard when one restricts the search — an exact result is
// memoized verbatim, so a shard's best must never answer for another
// shard or for the full space.
func (o *Optimizer) cacheKey(q *cq.Query) string {
	key := q.CanonicalKey() + o.knobKey()
	if o.Shard.enabled() {
		key += ";sh=" + strconv.Itoa(o.Shard.Index) + "/" + strconv.Itoa(o.Shard.Count)
	}
	return key
}

// templateKey composes the template cache key: the constant-masked,
// statistics-free template signature plus the same knob fingerprint.
// Unlike exact keys it carries no shard: template entries only ever
// hold full-space winners — a sharded search never memoizes its
// shard-local skeleton, the coordinator ships the merged winner's
// entry instead (TemplateEntry) — so an entry serves whichever process
// and fleet size it lands in.
func (o *Optimizer) templateKey(q *cq.Query) string {
	return "tpl|" + q.TemplateKey() + o.knobKey()
}
