package rescache

import (
	"testing"
	"time"

	"mdq/internal/exec"
	"mdq/internal/schema"
	"mdq/internal/service"
)

func entry(rows int, tag string) exec.Entry {
	e := exec.Entry{Pages: 1, Exhausted: true}
	for i := 0; i < rows; i++ {
		e.Rows = append(e.Rows, []schema.Value{schema.S(tag), schema.N(float64(i))})
	}
	return e
}

type fixedEpochs map[string]uint64

func (f fixedEpochs) Epoch(name string) uint64 { return f[name] }

func TestStoreHitMissAndClone(t *testing.T) {
	s := New(Config{})
	if _, ok := s.Get("svc", "k"); ok {
		t.Fatal("hit on empty store")
	}
	s.Put("svc", "k", entry(2, "a"))
	got, ok := s.Get("svc", "k")
	if !ok || len(got.Rows) != 2 || !got.Exhausted {
		t.Fatalf("expected exhausted 2-row hit, got %+v ok=%v", got, ok)
	}
	// Appending to a returned entry must not leak into the store.
	got.Rows = append(got.Rows, []schema.Value{schema.S("extra")})
	again, _ := s.Get("svc", "k")
	if len(again.Rows) != 2 {
		t.Fatalf("caller append mutated stored rows: %d", len(again.Rows))
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreEpochInvalidation(t *testing.T) {
	eps := fixedEpochs{"svc": 1}
	s := New(Config{Epochs: eps})
	s.Put("svc", "k", entry(1, "a"))
	if _, ok := s.Get("svc", "k"); !ok {
		t.Fatal("expected hit at stable epoch")
	}
	eps["svc"] = 2
	if _, ok := s.Get("svc", "k"); ok {
		t.Fatal("served stale entry across an epoch bump")
	}
	if st := s.Stats(); st.Invalidations != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreBindEvictsEagerly(t *testing.T) {
	reg := service.NewRegistry()
	s := New(Config{})
	s.Bind(reg)
	s.Put("svc", "k", entry(1, "a"))
	s.Put("other", "k", entry(1, "b"))
	reg.BumpEpoch("svc")
	if s.Len() != 1 {
		t.Fatalf("eager invalidation left %d entries", s.Len())
	}
	if _, ok := s.Get("other", "k"); !ok {
		t.Fatal("unrelated service evicted")
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s := New(Config{MaxEntries: 2})
	s.Put("svc", "a", entry(1, "a"))
	s.Put("svc", "b", entry(1, "b"))
	if _, ok := s.Get("svc", "a"); !ok { // refresh a; b is now coldest
		t.Fatal("expected hit on a")
	}
	s.Put("svc", "c", entry(1, "c"))
	if _, ok := s.Get("svc", "b"); ok {
		t.Fatal("coldest entry survived over capacity")
	}
	if _, ok := s.Get("svc", "a"); !ok {
		t.Fatal("recently-used entry evicted")
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreByteBound(t *testing.T) {
	small := entryBytes("svc", "a", entry(1, "x"))
	s := New(Config{MaxEntries: -1, MaxBytes: 3 * small})
	s.Put("svc", "a", entry(1, "x"))
	s.Put("svc", "b", entry(1, "x"))
	s.Put("svc", "c", entry(1, "x"))
	s.Put("svc", "d", entry(1, "x"))
	if st := s.Stats(); st.Bytes > 3*small || st.Evictions == 0 {
		t.Fatalf("byte bound not enforced: %+v (limit %d)", st, 3*small)
	}
	// An entry larger than the whole cache is refused outright.
	if s.Put("svc", "huge", entry(1000, "xxxxxxxxxxxxxxxx")); s.Len() == 1 {
		t.Fatal("oversized entry flushed the cache")
	}
}

func TestStoreTTL(t *testing.T) {
	s := New(Config{TTL: time.Minute})
	base := time.Unix(1000, 0)
	s.lru.Clock = func() time.Time { return base }
	s.Put("svc", "k", entry(1, "a"))
	if _, ok := s.Get("svc", "k"); !ok {
		t.Fatal("expected hit within TTL")
	}
	s.lru.Clock = func() time.Time { return base.Add(2 * time.Minute) }
	if _, ok := s.Get("svc", "k"); ok {
		t.Fatal("entry served past TTL")
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreObserverEvents(t *testing.T) {
	s := New(Config{MaxEntries: 1})
	events := map[Event]int{}
	s.Observer = func(ev Event, entries int, bytes int64) { events[ev]++ }
	s.Put("svc", "a", entry(1, "a"))
	s.Put("svc", "b", entry(1, "b")) // evicts a
	s.Get("svc", "b")
	s.Get("svc", "a")
	if events[Hit] != 1 || events[Miss] != 1 || events[EvictLRU] != 1 {
		t.Fatalf("events = %v", events)
	}
}
