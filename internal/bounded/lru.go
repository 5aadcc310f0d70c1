// Package bounded holds the serving path's two bounded-memory
// primitives: LRU, a map with an entry cap, a byte cap and a
// time-to-live (the plan cache and the result cache), and Ring, a
// fixed-capacity buffer that overwrites its oldest element (the
// slow-query log, the trace store and the event bus). Neither is safe
// for concurrent use: each owner guards one with its own lock.
package bounded

import "time"

// Cause names why an LRU evicted an entry.
type Cause int

// The eviction causes: the entry cap or the byte cap overflowed, or
// the entry outlived the TTL.
const (
	Entries Cause = iota
	Bytes
	TTL
)

// Item is one LRU entry. Its holder may change Value (or what Value
// points to) and nothing else.
type Item[K comparable, V any] struct {
	Key   K
	Value V
	Size  int64     // charge against the byte cap
	Added time.Time // time of the last Put; the TTL counts from it

	prev, next *Item[K, V]
}

// LRU is a map bounded by an entry cap, a byte cap and a TTL. Put and
// Resize evict least recently used entries until both caps hold, but
// never the only entry left, so one entry larger than the byte cap
// stays until something displaces it. Get evicts an entry past the TTL. The
// LRU reports every eviction it makes to its callback, with the cause;
// Remove and Clear are the owner's own drops and report nothing.
type LRU[K comparable, V any] struct {
	// Clock reads the time for TTL checks and Added stamps.
	Clock func() time.Time

	maxEntries int
	maxBytes   int64
	ttl        time.Duration
	onEvict    func(Cause)
	items      map[K]*Item[K, V]
	root       Item[K, V] // root.next is the most recently used entry
	bytes      int64
}

// NewLRU returns an empty LRU on the wall clock. maxEntries ≤ 0 and
// maxBytes ≤ 0 mean no such cap, ttl ≤ 0 means entries never expire.
// onEvict, when non-nil, is called after each eviction with its
// cause.
func NewLRU[K comparable, V any](maxEntries int, maxBytes int64, ttl time.Duration, onEvict func(Cause)) *LRU[K, V] {
	l := &LRU[K, V]{Clock: time.Now, maxEntries: maxEntries, maxBytes: maxBytes, ttl: ttl, onEvict: onEvict}
	l.Clear()
	return l
}

// Len returns the number of entries.
func (l *LRU[K, V]) Len() int { return len(l.items) }

// Bytes returns the total size of the entries.
func (l *LRU[K, V]) Bytes() int64 { return l.bytes }

// Peek returns the entry under k, expired or not, or nil. It does not
// change the entry's recency.
func (l *LRU[K, V]) Peek(k K) *Item[K, V] { return l.items[k] }

// Get returns the live entry under k, or nil. An entry past the TTL
// is evicted with cause TTL. Get does not change the entry's recency:
// call Touch when the lookup counts as a use.
func (l *LRU[K, V]) Get(k K) *Item[K, V] {
	it := l.items[k]
	if it != nil && l.ttl > 0 && l.Clock().Sub(it.Added) > l.ttl {
		l.evict(it, TTL)
		return nil
	}
	return it
}

// Touch marks an entry of the LRU most recently used.
func (l *LRU[K, V]) Touch(it *Item[K, V]) {
	l.unlink(it)
	l.pushFront(it)
}

// Put stores v under k as the most recently used entry, replacing any
// entry under k, and evicts until the caps hold.
func (l *LRU[K, V]) Put(k K, v V, size int64) {
	if old := l.items[k]; old != nil {
		l.drop(old)
	}
	it := &Item[K, V]{Key: k, Value: v, Size: size, Added: l.Clock()}
	l.items[k] = it
	l.bytes += size
	l.pushFront(it)
	l.enforce()
}

// Resize sets the size of an entry of the LRU, keeping its recency
// and age, and evicts until the caps hold.
func (l *LRU[K, V]) Resize(it *Item[K, V], size int64) {
	l.bytes += size - it.Size
	it.Size = size
	l.enforce()
}

// Remove drops an entry of the LRU without calling the eviction
// callback.
func (l *LRU[K, V]) Remove(it *Item[K, V]) { l.drop(it) }

// Clear drops every entry without calling the eviction callback.
func (l *LRU[K, V]) Clear() {
	l.items = map[K]*Item[K, V]{}
	l.root.prev, l.root.next = &l.root, &l.root
	l.bytes = 0
}

// Each calls fn on every entry, expired ones included, most recently
// used first, until fn returns false. fn may Remove the entry it is
// given, but make no other change to the LRU.
func (l *LRU[K, V]) Each(fn func(*Item[K, V]) bool) {
	for it := l.root.next; it != &l.root; {
		next := it.next
		if !fn(it) {
			return
		}
		it = next
	}
}

// enforce evicts from the least recently used end until the caps
// hold, sparing the most recent entry.
func (l *LRU[K, V]) enforce() {
	for back := l.root.prev; back != l.root.next; back = l.root.prev {
		switch {
		case l.maxEntries > 0 && len(l.items) > l.maxEntries:
			l.evict(back, Entries)
		case l.maxBytes > 0 && l.bytes > l.maxBytes:
			l.evict(back, Bytes)
		default:
			return
		}
	}
}

func (l *LRU[K, V]) evict(it *Item[K, V], c Cause) {
	l.drop(it)
	if l.onEvict != nil {
		l.onEvict(c)
	}
}

func (l *LRU[K, V]) drop(it *Item[K, V]) {
	l.unlink(it)
	delete(l.items, it.Key)
	l.bytes -= it.Size
}

func (l *LRU[K, V]) unlink(it *Item[K, V]) {
	it.prev.next, it.next.prev = it.next, it.prev
}

func (l *LRU[K, V]) pushFront(it *Item[K, V]) {
	it.prev, it.next = &l.root, l.root.next
	it.prev.next, it.next.prev = it, it
}
