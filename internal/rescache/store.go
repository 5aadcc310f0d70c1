// Package rescache implements the fleet-wide service-call result
// cache of the cross-query sharing layer: a bounded, epoch-aware
// store of logical invocation results keyed by service name and
// input-binding fingerprint. It sits *under* the per-run logical
// cache of §5.1 (exec.NewTieredCache): within one execution the run
// cache answers repeats, and across executions — other queries, other
// requests, other fragments on the same worker — the store makes a
// repeated invocation with identical bindings free after the first.
//
// Correctness rests on the statistics-epoch machinery: every entry is
// stamped with the service's registry epoch at insertion, a lookup
// whose stamp disagrees with the current epoch misses (and drops the
// entry), and Bind subscribes the store to the registry's epoch feed
// so a bump evicts eagerly. A service re-profile, a gossip-delivered
// remote bump, or an explicit invalidation therefore can never be
// served stale rows — the differential suite pins this.
package rescache

import (
	"sync"
	"time"

	"mdq/internal/bounded"
	"mdq/internal/exec"
	"mdq/internal/schema"
	"mdq/internal/serve"
	"mdq/internal/service"
)

// Event classifies a store transition for the Observer hook.
type Event string

// Store events, in the order a metric scrape usually wants them.
const (
	// Hit: a lookup was answered from the store.
	Hit Event = "hit"
	// Miss: a lookup found nothing usable.
	Miss Event = "miss"
	// EvictLRU: an entry was dropped to respect MaxEntries/MaxBytes.
	EvictLRU Event = "evict_lru"
	// EvictTTL: an entry was dropped because it outlived TTL.
	EvictTTL Event = "evict_ttl"
	// Invalidate: an entry was dropped because its service's
	// statistics epoch moved past the entry's stamp.
	Invalidate Event = "invalidate"
)

// EpochSource yields the current statistics epoch of a service; a
// *service.Registry satisfies it. A nil source disables epoch checks
// (entries then age out only by LRU/TTL pressure).
type EpochSource interface {
	// Epoch returns the current statistics epoch of a service.
	Epoch(name string) uint64
}

// Config bounds a Store. Zero values select the defaults noted on
// each field.
type Config struct {
	// MaxEntries caps the number of cached invocations (default
	// 4096; negative means unbounded).
	MaxEntries int
	// MaxBytes caps the approximate memory footprint of cached rows
	// (default 32 MiB; negative means unbounded).
	MaxBytes int64
	// TTL expires entries by age regardless of epoch stability
	// (default 0: no age limit).
	TTL time.Duration
	// Epochs supplies per-service statistics epochs; nil disables
	// epoch validation. Bind sets it from a registry.
	Epochs EpochSource
}

// DefaultMaxEntries is the entry cap when Config.MaxEntries is 0.
const DefaultMaxEntries = 4096

// DefaultMaxBytes is the byte cap when Config.MaxBytes is 0.
const DefaultMaxBytes int64 = 32 << 20

// Stats is a point-in-time snapshot of store accounting.
type Stats struct {
	// Hits counts lookups answered from the store.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that found nothing usable.
	Misses uint64 `json:"misses"`
	// Evictions counts entries dropped by LRU/byte/TTL pressure.
	Evictions uint64 `json:"evictions"`
	// Invalidations counts entries dropped by epoch movement.
	Invalidations uint64 `json:"invalidations"`
	// Entries is the current number of cached invocations.
	Entries int `json:"entries"`
	// Bytes is the approximate memory footprint of cached rows.
	Bytes int64 `json:"bytes"`
}

type item struct {
	service string
	entry   exec.Entry
	epoch   uint64
}

// Store is the shared result cache. It implements exec.Cache, so it
// plugs into exec.Runner.ResultCache and is consulted by the node
// invoker before a logical call is charged against the request
// budget. All methods are safe for concurrent use. A nil *Store is a
// valid no-op cache — every Get misses and every Put is dropped — so
// wiring code may pass an unconfigured store straight through
// (beware that a nil *Store stored in an exec.Cache interface is not
// ==nil at the interface level).
type Store struct {
	// Observer, when non-nil, is invoked under the store lock after
	// every classified transition with the post-transition entry/byte
	// occupancy — the hook the binaries use to keep /metrics counters
	// and gauges live. It must not call back into the store, and it
	// must be set before the store is shared between goroutines.
	Observer func(ev Event, entries int, bytes int64)

	mu      sync.Mutex
	cfg     Config
	lru     *bounded.LRU[string, *item] // keyed service + "\x00" + input key
	hits    uint64
	misses  uint64
	evicts  uint64
	invalid uint64
}

// New builds a Store with the config's bounds (zero fields take the
// documented defaults).
func New(cfg Config) *Store {
	if cfg.MaxEntries == 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	s := &Store{cfg: cfg}
	s.lru = bounded.NewLRU[string, *item](cfg.MaxEntries, cfg.MaxBytes, cfg.TTL, func(cause bounded.Cause) {
		s.evicts++
		if cause == bounded.TTL {
			s.notifyLocked(EvictTTL)
		} else {
			s.notifyLocked(EvictLRU)
		}
	})
	return s
}

// Bind points epoch validation at reg and subscribes the store to its
// epoch feed, so a BumpEpoch (local re-profile or gossip-delivered)
// evicts the service's entries eagerly instead of waiting for the
// next lookup. Call once, before serving traffic.
func (s *Store) Bind(reg *service.Registry) {
	s.mu.Lock()
	s.cfg.Epochs = reg
	s.mu.Unlock()
	reg.SubscribeEpochs(s, func(svc string, epoch uint64) {
		s.InvalidateService(svc, epoch)
	})
}

// Get returns the cached entry for a service/input-key pair, cloned
// so the caller may extend it (resumed fetches append to Rows)
// without mutating the shared copy. Entries whose epoch stamp or TTL
// no longer holds are dropped and reported as misses.
func (s *Store) Get(svc, key string) (exec.Entry, bool) {
	if s == nil {
		return exec.Entry{}, false
	}
	k := svc + "\x00" + key
	s.mu.Lock()
	it := s.lru.Peek(k)
	if it != nil && s.cfg.Epochs != nil && it.Value.epoch != s.cfg.Epochs.Epoch(svc) {
		s.lru.Remove(it)
		s.invalid++
		s.notifyLocked(Invalidate)
		it = nil
	} else if it != nil {
		it = s.lru.Get(k) // nil past the TTL
	}
	if it == nil {
		s.misses++
		s.notifyLocked(Miss)
		s.mu.Unlock()
		return exec.Entry{}, false
	}
	s.lru.Touch(it)
	s.hits++
	entry := it.Value.entry
	s.notifyLocked(Hit)
	s.mu.Unlock()
	// Clone the outer row slice at exact capacity: an invoker that
	// resumes fetching appends to Rows, which must reallocate rather
	// than scribble into the shared backing array. Row contents are
	// never mutated in place, so the inner slices can be shared.
	rows := make([][]schema.Value, len(entry.Rows))
	copy(rows, entry.Rows)
	entry.Rows = rows
	return entry, true
}

// Put records the entry of an invocation, stamped with the service's
// current statistics epoch, and evicts from the cold end until the
// entry/byte bounds hold again.
func (s *Store) Put(svc, key string, e exec.Entry) {
	if s == nil {
		return
	}
	size := entryBytes(svc, key, e)
	if s.cfg.MaxBytes > 0 && size > s.cfg.MaxBytes {
		return // larger than the whole cache; don't thrash it
	}
	var epoch uint64
	s.mu.Lock()
	if s.cfg.Epochs != nil {
		epoch = s.cfg.Epochs.Epoch(svc)
	}
	s.lru.Put(svc+"\x00"+key, &item{service: svc, entry: e, epoch: epoch}, size)
	s.mu.Unlock()
}

// InvalidateService drops every cached entry of a service whose epoch
// stamp disagrees with the given epoch (the same inequality the plan
// cache uses, so uncoordinated epoch numberings still invalidate). It
// is the eager path behind Bind; calling it directly with
// Registry.Epoch's value is equivalent.
func (s *Store) InvalidateService(svc string, epoch uint64) {
	s.dropService(svc, &epoch)
}

// DropService unconditionally drops every cached entry of a service —
// the remote-bump path (dist.Worker.Gossip): a bump gossiped from
// another process carries that process's epoch numbering, which says
// nothing about local stamps beyond "this service's statistics
// moved", so everything cached for it goes.
func (s *Store) DropService(svc string) {
	s.dropService(svc, nil)
}

func (s *Store) dropService(svc string, epoch *uint64) {
	s.mu.Lock()
	s.lru.Each(func(it *bounded.Item[string, *item]) bool {
		if it.Value.service == svc && (epoch == nil || it.Value.epoch != *epoch) {
			s.lru.Remove(it)
			s.invalid++
			s.notifyLocked(Invalidate)
		}
		return true
	})
	s.mu.Unlock()
}

// Stats snapshots the store's counters and occupancy.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:          s.hits,
		Misses:        s.misses,
		Evictions:     s.evicts,
		Invalidations: s.invalid,
		Entries:       s.lru.Len(),
		Bytes:         s.lru.Bytes(),
	}
}

// Len returns the current number of cached invocations.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// notifyLocked invokes the Observer synchronously, under the store
// lock, to keep transitions and occupancy readings consistent.
// Observers must therefore not call back into the store — the
// binaries only bump atomic metric counters, which is the intended
// shape of the hook.
func (s *Store) notifyLocked(ev Event) {
	if s.Observer != nil {
		s.Observer(ev, s.lru.Len(), s.lru.Bytes())
	}
}

// MetricsObserver adapts a serving-layer metrics registry into an
// Observer: every transition bumps
// mdq_result_cache_events_total{event=...} and refreshes the
// mdq_result_cache_entries / mdq_result_cache_bytes gauges. Both
// binaries wire their stores through this.
//
// The counters and gauges are resolved once, here, so an event —
// reported under the store lock — costs no registry lookup.
func MetricsObserver(m *serve.Metrics) func(ev Event, entries int, bytes int64) {
	events := map[Event]*serve.Counter{}
	for _, ev := range []Event{Hit, Miss, EvictLRU, EvictTTL, Invalidate} {
		events[ev] = m.CounterL("mdq_result_cache_events_total",
			"Result cache transitions by kind (hit, miss, evict_lru, evict_ttl, invalidate).",
			"event", string(ev))
	}
	entriesGauge := m.Gauge("mdq_result_cache_entries", "Cached service invocations resident in the result cache.")
	bytesGauge := m.Gauge("mdq_result_cache_bytes", "Approximate bytes of rows resident in the result cache.")
	return func(ev Event, entries int, bytes int64) {
		events[ev].Inc()
		entriesGauge.Set(float64(entries))
		bytesGauge.Set(float64(bytes))
	}
}

// entryBytes approximates the resident size of a cached invocation:
// map/list bookkeeping plus per-row and per-value overheads and
// string payloads.
func entryBytes(svc, key string, e exec.Entry) int64 {
	size := int64(len(svc) + len(key) + 96)
	for _, row := range e.Rows {
		size += 24
		for _, v := range row {
			size += 40 + int64(len(v.Str))
		}
	}
	return size
}
