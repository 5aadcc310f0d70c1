package bounded

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// refEntry is one entry of the naive reference model.
type refEntry struct {
	key, val int
	size     int64
	added    time.Time
}

// refLRU is the reference: a slice kept most recently used first,
// scanned linearly, with the eviction rules written out directly.
type refLRU struct {
	maxEntries int
	maxBytes   int64
	ttl        time.Duration
	es         []refEntry
	evicted    []Cause
}

func (r *refLRU) find(k int) int {
	for i, e := range r.es {
		if e.key == k {
			return i
		}
	}
	return -1
}

func (r *refLRU) bytes() int64 {
	var n int64
	for _, e := range r.es {
		n += e.size
	}
	return n
}

func (r *refLRU) del(i int) refEntry {
	e := r.es[i]
	r.es = append(r.es[:i:i], r.es[i+1:]...)
	return e
}

func (r *refLRU) enforce() {
	for len(r.es) > 1 {
		last := len(r.es) - 1
		switch {
		case r.maxEntries > 0 && len(r.es) > r.maxEntries:
			r.del(last)
			r.evicted = append(r.evicted, Entries)
		case r.maxBytes > 0 && r.bytes() > r.maxBytes:
			r.del(last)
			r.evicted = append(r.evicted, Bytes)
		default:
			return
		}
	}
}

func (r *refLRU) put(k, v int, size int64, now time.Time) {
	if i := r.find(k); i >= 0 {
		r.del(i)
	}
	r.es = append([]refEntry{{k, v, size, now}}, r.es...)
	r.enforce()
}

// get is a lookup that counts as a use: Get, then Touch on a hit.
func (r *refLRU) get(k int, now time.Time) (int, bool) {
	i := r.find(k)
	if i < 0 {
		return 0, false
	}
	if r.ttl > 0 && now.Sub(r.es[i].added) > r.ttl {
		r.del(i)
		r.evicted = append(r.evicted, TTL)
		return 0, false
	}
	e := r.del(i)
	r.es = append([]refEntry{e}, r.es...)
	return e.val, true
}

// TestLRUMatchesReference drives the LRU and the slice reference
// through the same seeded random sequences of put, get, resize,
// remove, clock advance and iterate-with-removal, at an entry cap, a
// byte cap, a TTL and all three at once. After every step the
// survivors, their order, the byte total and the sequence of eviction
// causes must agree; across its seeds each configuration must produce
// the evictions it is meant to exercise, so the comparison is not
// vacuous. Resizes reach past the byte cap, so a lone entry larger
// than the cap occurs too.
func TestLRUMatchesReference(t *testing.T) {
	configs := []struct {
		name       string
		maxEntries int
		maxBytes   int64
		ttl        time.Duration
		want       []Cause
	}{
		{"entries", 5, 0, 0, []Cause{Entries}},
		{"bytes", 0, 100, 0, []Cause{Bytes}},
		{"ttl", 0, 0, 10 * time.Second, []Cause{TTL}},
		{"all", 6, 120, 15 * time.Second, []Cause{Entries, Bytes, TTL}},
	}
	for _, cfg := range configs {
		seen := map[Cause]int{}
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				now := time.Unix(1000, 0)
				ref := &refLRU{maxEntries: cfg.maxEntries, maxBytes: cfg.maxBytes, ttl: cfg.ttl}
				var evicted []Cause
				l := NewLRU[int, int](cfg.maxEntries, cfg.maxBytes, cfg.ttl, func(c Cause) {
					evicted = append(evicted, c)
					seen[c]++
				})
				l.Clock = func() time.Time { return now }
				for step := 0; step < 400; step++ {
					k := rng.Intn(12)
					var op string
					switch n := rng.Intn(10); {
					case n < 4:
						op = "put"
						v, size := rng.Intn(1000), int64(1+rng.Intn(40))
						ref.put(k, v, size, now)
						l.Put(k, v, size)
					case n < 6:
						op = "get"
						want, wok := ref.get(k, now)
						it := l.Get(k)
						if it != nil {
							l.Touch(it)
						}
						if (it != nil) != wok || (wok && it.Value != want) {
							t.Fatalf("step %d get %d: got %v, want %d/%v", step, k, it, want, wok)
						}
					case n < 7:
						op = "resize"
						size := int64(1 + rng.Intn(150))
						if i := ref.find(k); i >= 0 {
							ref.es[i].size = size
							ref.enforce()
						}
						if it := l.Peek(k); it != nil {
							l.Resize(it, size)
						}
					case n < 8:
						op = "remove"
						if i := ref.find(k); i >= 0 {
							ref.del(i)
						}
						if it := l.Peek(k); it != nil {
							l.Remove(it)
						}
					case n < 9:
						op = "advance"
						now = now.Add(time.Duration(rng.Intn(6)) * time.Second)
					default:
						op = "iterate"
						mod := 2 + rng.Intn(3)
						var want []int
						for i := 0; i < len(ref.es); {
							want = append(want, ref.es[i].key)
							if ref.es[i].val%mod == 0 {
								ref.del(i)
							} else {
								i++
							}
						}
						var got []int
						l.Each(func(it *Item[int, int]) bool {
							got = append(got, it.Key)
							if it.Value%mod == 0 {
								l.Remove(it)
							}
							return true
						})
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("step %d iterate: visited %v, want %v", step, got, want)
						}
					}
					var keys, wantKeys []int
					l.Each(func(it *Item[int, int]) bool {
						keys = append(keys, it.Key)
						return true
					})
					for _, e := range ref.es {
						wantKeys = append(wantKeys, e.key)
					}
					if !reflect.DeepEqual(keys, wantKeys) {
						t.Fatalf("step %d (%s %d): order %v, want %v", step, op, k, keys, wantKeys)
					}
					if l.Len() != len(ref.es) || l.Bytes() != ref.bytes() {
						t.Fatalf("step %d (%s %d): len/bytes %d/%d, want %d/%d", step, op, k, l.Len(), l.Bytes(), len(ref.es), ref.bytes())
					}
					if !reflect.DeepEqual(evicted, ref.evicted) {
						t.Fatalf("step %d (%s %d): eviction causes %v, want %v", step, op, k, evicted, ref.evicted)
					}
				}
			})
		}
		for _, c := range cfg.want {
			if seen[c] == 0 {
				t.Errorf("%s: no eviction with cause %d in any seed", cfg.name, c)
			}
		}
	}
}

// TestRingWrapAround pushes past the capacity several times and
// checks both iteration orders, and the overwrite report, after every
// push.
func TestRingWrapAround(t *testing.T) {
	const capacity = 4
	r := NewRing[int](capacity)
	if len(r.NewestFirst()) != 0 || len(r.OldestFirst()) != 0 {
		t.Fatal("empty ring yields elements")
	}
	for v := 0; v < 3*capacity+1; v++ {
		if overwrote := r.Push(v); overwrote != (v >= capacity) {
			t.Fatalf("push %d: overwrote = %v", v, overwrote)
		}
		var oldest []int
		for w := v - capacity + 1; w <= v; w++ {
			if w >= 0 {
				oldest = append(oldest, w)
			}
		}
		newest := make([]int, len(oldest))
		for i, w := range oldest {
			newest[len(oldest)-1-i] = w
		}
		if got := r.OldestFirst(); !reflect.DeepEqual(got, oldest) {
			t.Fatalf("after push %d: oldest first %v, want %v", v, got, oldest)
		}
		if got := r.NewestFirst(); !reflect.DeepEqual(got, newest) {
			t.Fatalf("after push %d: newest first %v, want %v", v, got, newest)
		}
		if r.Len() != len(oldest) {
			t.Fatalf("after push %d: len %d, want %d", v, r.Len(), len(oldest))
		}
	}
}
