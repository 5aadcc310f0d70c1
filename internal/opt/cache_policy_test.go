package opt

import (
	"fmt"
	"testing"
	"time"
)

// fakeClock drives the cache's time for TTL tests.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

// TestPlanCacheTTLEviction: entries older than the TTL miss and are
// dropped on access, counted as TTL evictions.
func TestPlanCacheTTLEviction(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := NewPlanCacheWith(Policy{Capacity: 8, TTL: time.Minute})
	c.lru.Clock = clk.now
	c.Put("a", &Result{Cost: 1})
	clk.advance(30 * time.Second)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("entry missing before TTL")
	}
	clk.advance(31 * time.Second) // age 61s > TTL (Get does not refresh age)
	if _, ok := c.Get("a"); ok {
		t.Fatal("expired entry served")
	}
	if c.Len() != 0 {
		t.Fatalf("expired entry retained (%d entries)", c.Len())
	}
	if st := c.Stats(); st.EvictedTTL != 1 {
		t.Fatalf("TTL evictions = %d, want 1", st.EvictedTTL)
	}
	// Re-putting restarts the clock.
	c.Put("a", &Result{Cost: 2})
	clk.advance(59 * time.Second)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("fresh entry expired early")
	}
}

// TestPlanCacheByteBudget: inserts beyond the byte budget evict LRU
// entries until the budget holds (but never the newest entry).
func TestPlanCacheByteBudget(t *testing.T) {
	c := NewPlanCacheWith(Policy{Capacity: 1024, MaxBytes: 2000})
	for i := 0; i < 8; i++ {
		c.Put(fmt.Sprintf("k%d", i), &Result{Cost: float64(i)})
	}
	st := c.Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("cache over budget: %d > %d", st.Bytes, st.MaxBytes)
	}
	if st.EvictedBytes == 0 {
		t.Fatal("no byte evictions recorded")
	}
	if c.Len() == 0 {
		t.Fatal("budget evicted everything including the newest entry")
	}
	// The newest entry survives.
	if _, ok := c.Get("k7"); !ok {
		t.Fatal("newest entry evicted by byte budget")
	}
	// The oldest is gone.
	if _, ok := c.Get("k0"); ok {
		t.Fatal("oldest entry survived a binding byte budget")
	}
}

// TestPlanCacheByteAccounting: bytes track inserts, overwrites and
// purges exactly.
func TestPlanCacheByteAccounting(t *testing.T) {
	c := NewPlanCacheWith(Policy{Capacity: 8})
	c.Put("a", &Result{Cost: 1})
	one := c.Stats().Bytes
	if one <= 0 {
		t.Fatal("entry has no size")
	}
	c.Put("a", &Result{Cost: 2}) // overwrite, same shape
	if got := c.Stats().Bytes; got != one {
		t.Fatalf("overwrite changed accounted bytes: %d vs %d", got, one)
	}
	c.Put("b", &Result{Cost: 3})
	if got := c.Stats().Bytes; got <= one {
		t.Fatalf("second entry not accounted: %d", got)
	}
	c.Purge()
	if got := c.Stats().Bytes; got != 0 {
		t.Fatalf("purge left %d bytes accounted", got)
	}
}
