package opt_test

import (
	"bytes"
	"strings"
	"testing"

	"mdq/internal/card"
	"mdq/internal/cost"
	"mdq/internal/cq"
	. "mdq/internal/opt"
	"mdq/internal/simweb"
)

// FuzzPlanCacheLoad feeds arbitrary bytes to PlanCache.Load on a
// cache bound to the travel registry. Load must fail or accept
// entries, never panic. Afterwards the cache's three views
// (ExportTemplates, Stats, Entries) must agree, and Save followed by
// Load into a fresh cache must be a fixed point: the second Save
// writes the same bytes as the first.
func FuzzPlanCacheLoad(f *testing.F) {
	w := simweb.NewTravelWorld(simweb.TravelOptions{})
	seed := NewPlanCache(16)
	o := &Optimizer{Metric: cost.ExecTime{}, Estimator: card.Config{Mode: card.OneCall},
		K: 10, ChooseMethod: w.Registry.MethodChooser(), Cache: seed, Epochs: w.Registry}
	for _, text := range []string{smallTravelText, strings.Replace(smallTravelText, "'luxury'", "Cat", 1)} {
		q, err := cq.Parse(text)
		if err != nil {
			f.Fatal(err)
		}
		if err := q.Resolve(w.Schema); err != nil {
			f.Fatal(err)
		}
		if _, err := o.OptimizeTemplate(q); err != nil {
			f.Fatal(err)
		}
	}
	var saved bytes.Buffer
	if err := seed.Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	f.Add([]byte(`{"version":1,"templates":[]}`))
	f.Add([]byte(`{"version":2,"templates":[]}`))
	f.Add([]byte(`{"version":1,"templates":[{"key":"a","class":"x","assignment":[],"topology":{"n":0,"bits":""}},` +
		`{"key":"b","assignment":["io"],"topology":{"n":1,"bits":"0"},"epochs":{"conf":3}},` +
		`{"key":"a","class":"y","assignment":[],"topology":{"n":0,"bits":""},"dists":{"conf":""}}]}`))
	f.Add([]byte(`{"version":1,"templates":[{"key":"k","assignment":[],"topology":{"n":4294967296,"bits":""}}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewPlanCache(8)
		n, err := c.Load(bytes.NewReader(data), w.Registry)
		if err != nil && n != 0 {
			t.Fatalf("Load failed (%v) but reports %d entries accepted", err, n)
		}
		wire := checkCacheViews(t, c)
		if len(wire) > n {
			t.Fatalf("cache exports %d entries after accepting %d", len(wire), n)
		}

		var first bytes.Buffer
		if err := c.Save(&first); err != nil {
			t.Fatal(err)
		}
		again := NewPlanCache(8)
		m, err := again.Load(bytes.NewReader(first.Bytes()), w.Registry)
		if err != nil || m != len(wire) {
			t.Fatalf("reloading a Save accepted %d of %d entries (err %v)", m, len(wire), err)
		}
		checkCacheViews(t, again)
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save/Load is not a fixed point:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// checkCacheViews asserts that a cache holding only loaded template
// entries reports the same contents through Stats, Entries and
// ExportTemplates, and returns the exported wire entries.
func checkCacheViews(t *testing.T, c *PlanCache) []TemplateWireEntry {
	t.Helper()
	st, entries, wire := c.Stats(), c.Entries(), c.ExportTemplates()
	if st.Size != len(entries) || st.Size != c.Len() || st.Size > st.Cap {
		t.Fatalf("size %d, %d entries listed, Len %d, cap %d", st.Size, len(entries), c.Len(), st.Cap)
	}
	var size int64
	classes := 0
	var order []string // entry keys, most recently used first
	for _, e := range entries {
		if e.Kind != "template" || len(e.Classes) == 0 || e.Bytes <= 0 {
			t.Fatalf("loaded entry %+v", e)
		}
		size += e.Bytes
		classes += len(e.Classes)
		order = append(order, e.Key)
	}
	if size != st.Bytes || classes != st.Classes || classes != len(wire) {
		t.Fatalf("bytes %d vs %d, classes %d vs %d, %d wire entries", size, st.Bytes, classes, st.Classes, len(wire))
	}
	if st.Hits+st.Misses+st.Searches != 0 {
		t.Fatalf("loading moved the serving counters: %+v", st)
	}
	var wireOrder []string
	for i, we := range wire {
		if i == 0 || wire[i-1].Key != we.Key {
			wireOrder = append(wireOrder, we.Key)
		}
	}
	if strings.Join(wireOrder, "\x00") != strings.Join(order, "\x00") {
		t.Fatalf("exported keys %q, listed keys %q", wireOrder, order)
	}
	return wire
}
