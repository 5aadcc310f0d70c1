package workload

import (
	"bytes"
	"sort"
	"testing"
)

func bodies(t *testing.T, name string, seed uint64) [][]byte {
	t.Helper()
	w, err := Generate(name, seed, 20)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(w.Requests))
	for i, r := range w.Requests {
		out[i] = r.Body()
	}
	return out
}

func equal(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sorted(a [][]byte) [][]byte {
	out := append([][]byte(nil), a...)
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	return out
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, name := range Names() {
		if !equal(bodies(t, name, 7), bodies(t, name, 7)) {
			t.Errorf("%s: seed 7 generated two different lists", name)
		}
	}
}

// A different seed must reorder the list without changing what the
// list is made of, or runs on different seeds measure different work.
func TestOtherSeedReordersSameFamily(t *testing.T) {
	for _, name := range []string{"hot_single", "cold_search", "fleet_hot"} {
		a, b := bodies(t, name, 1), bodies(t, name, 2)
		if equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 generated the same order", name)
		}
		if !equal(sorted(a), sorted(b)) {
			t.Errorf("%s: seeds 1 and 2 generated different request multisets", name)
		}
	}
	// zipf_exec draws bindings at random, so only the family is fixed.
	a, b := bodies(t, "zipf_exec", 1), bodies(t, "zipf_exec", 2)
	if equal(a, b) {
		t.Error("zipf_exec: seeds 1 and 2 generated the same draws")
	}
}

func TestFleetHotIsHotSingle(t *testing.T) {
	if !equal(bodies(t, "hot_single", 3), bodies(t, "fleet_hot", 3)) {
		t.Error("fleet_hot and hot_single differ for the same seed")
	}
}

func TestColdSearchKeysAreDistinct(t *testing.T) {
	for _, seconds := range []int{1, 20, 60} {
		w, err := Generate("cold_search", 5, seconds)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, r := range w.Requests {
			if seen[r.CacheKey()] {
				t.Errorf("seconds=%d: (template, metric, k) = (…, %s, %d) sent twice", seconds, r.Metric, r.K)
			}
			seen[r.CacheKey()] = true
		}
		if len(w.Measured()) < 10 {
			t.Errorf("seconds=%d: only %d measured keys", seconds, len(w.Measured()))
		}
	}
}

func TestZipfIsSkewed(t *testing.T) {
	w, err := Generate("zipf_exec", 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range w.Requests {
		counts[r.Value]++
	}
	if head, tail := counts["tag-00"], counts["tag-49"]; head < 20*tail || head == 0 {
		t.Errorf("tag-00 drawn %d times, tag-49 %d: not Zipf(1.1)", head, tail)
	}
	if len(counts) < 40 {
		t.Errorf("only %d of 50 tags drawn", len(counts))
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Generate("nope", 1, 20); err == nil {
		t.Error("unknown workload generated a list")
	}
}
