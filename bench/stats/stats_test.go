package stats

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestHighestSupported(t *testing.T) {
	cases := []struct {
		n     int
		label string
		ok    bool
	}{
		{5, "", false},
		{19, "", false},
		{20, "p50", true},
		{30, "p50", true},
		{40, "p75", true},
		{100, "p90", true},
		{199, "p90", true},
		{200, "p95", true},
		{999, "p95", true},
		{1000, "p99", true},
		{30000, "p99.9", true},
	}
	for _, c := range cases {
		_, label, ok := HighestSupported(c.n)
		if label != c.label || ok != c.ok {
			t.Errorf("HighestSupported(%d) = %q, %v; want %q, %v", c.n, label, ok, c.label, c.ok)
		}
	}
	if Supports(99, 90) || !Supports(100, 90) {
		t.Error("p90 must need exactly 100 samples")
	}
}

func TestPercentile(t *testing.T) {
	s := Sorted([]float64{5, 1, 3, 2, 4})
	if got := Percentile(s, 50); !near(got, 3) {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := Percentile(s, 90); !near(got, 4.6) {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if got := Percentile(s, 100); !near(got, 5) {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

// The expected values are statistics.quantiles(values, n=4) of
// Python 3.11, the function the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := Quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = Quartiles([]float64{3.1, 2.9, 3.4, 3.0, 3.3, 2.8, 3.2, 3.05, 2.95, 3.6})
	if !near(q1, 2.9375) || !near(q3, 3.325) {
		t.Errorf("quartiles = %v, %v; want 2.9375, 3.325", q1, q3)
	}
}

func TestCompare(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(by float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v + by
		}
		return out
	}
	cases := []struct {
		name    string
		change  []float64
		lower   bool
		verdict Verdict
	}{
		{"clear gain on a lower-is-better metric", shift(-10), true, Improved},
		{"clear loss beyond the bound", shift(+20), true, Regressed},
		{"same numbers, tight parent", shift(0), true, Within},
		{"worse but inside the bound", shift(+3), true, Within},
		{"higher is better flips the sign", shift(+10), false, Improved},
		{"gain smaller than the parent's own spread", shift(-0.5), true, Within},
	}
	for _, c := range cases {
		got, err := Compare(parent, c.change, c.lower, 0.10)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.Verdict != c.verdict {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, got.Verdict, c.verdict, got)
		}
	}

	// A parent whose own runs spread wider than the bound cannot show
	// "unchanged".
	noisy := []float64{100, 140, 80, 120, 90, 130, 70, 110, 100, 125}
	got, err := Compare(noisy, noisy, true, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if got.Verdict != Unresolved {
		t.Errorf("noisy parent against itself: verdict %q, want unresolved", got.Verdict)
	}

	if _, err := Compare(parent[:9], parent[:9], true, 0.1); err == nil {
		t.Error("9 pairs accepted; the rule needs 10")
	}
	if _, err := Compare(parent, parent[:9], true, 0.1); err == nil {
		t.Error("unpaired runs accepted")
	}
}
