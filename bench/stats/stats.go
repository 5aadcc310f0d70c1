// Package stats holds the benchmark's arithmetic: percentiles, the
// highest percentile a sample supports, quartiles as the driver
// computes them, and the paired-comparison rule of the
// choosing-metrics guide.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// MinBeyond is how many samples must lie beyond a reported percentile.
const MinBeyond = 10

// Sorted returns an ascending copy of values.
func Sorted(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}

// Percentile returns the q-th percentile (0 ≤ q ≤ 100) of an ascending
// sample by linear interpolation between closest ranks; 0 when empty.
func Percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Median returns the 50th percentile of values in any order.
func Median(values []float64) float64 { return Percentile(Sorted(values), 50) }

// Mean returns the arithmetic mean; 0 when empty.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// tailLadder lists the percentiles a report may name, ascending.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// Supports reports whether n samples leave at least MinBeyond of them
// beyond the q-th percentile.
func Supports(n int, q float64) bool {
	return float64(n)*(100-q)/100 >= MinBeyond
}

// HighestSupported picks the highest percentile of the ladder that n
// samples support and returns it with its label ("p99"); ok is false
// when not even the median has MinBeyond samples beyond it.
func HighestSupported(n int) (q float64, label string, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if Supports(n, tailLadder[i]) {
			return tailLadder[i], Label(tailLadder[i]), true
		}
	}
	return 0, "", false
}

// Label names a percentile: 99 → "p99", 99.9 → "p99.9".
func Label(q float64) string {
	return "p" + fmt.Sprintf("%g", q)
}

// Quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// what the driver computes spreads with. It needs two values.
func Quartiles(values []float64) (q1, q3 float64) {
	s := Sorted(values)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// Spread is the inter-quartile distance as a share of the median.
func Spread(values []float64) float64 {
	med := Median(values)
	if med == 0 {
		return 0
	}
	q1, q3 := Quartiles(values)
	return (q3 - q1) / math.Abs(med)
}

// Verdict is the outcome of a paired comparison.
type Verdict string

// The four outcomes of Compare.
const (
	Improved   Verdict = "improved"
	Regressed  Verdict = "regressed"
	Within     Verdict = "within bound"
	Unresolved Verdict = "unresolved"
)

// Comparison is one (workload, metric) row of a paired comparison.
type Comparison struct {
	ParentMedian, ParentQ1, ParentQ3 float64
	ChangeMedian                     float64
	// Wins and Losses count pairs the change read better or worse in;
	// ties count for neither.
	Wins, Losses, Pairs int
	Verdict             Verdict
}

// MinPairs is how many parent/change pairs a comparison needs.
const MinPairs = 10

// Compare applies the guide's rule to paired runs. The change has
// improved when it wins at least nine tenths of the pairs and the
// medians differ by more than the parent's inter-quartile distance;
// it has regressed when its median is worse than the parent's by more
// than bound (a share of the parent's median) and it loses by the same
// two tests. A worse median inside the bound is "within bound" only
// when the parent's own spread is inside the bound too, or every
// change run reads better than every parent run; otherwise the pair
// set cannot tell and the row is unresolved.
func Compare(parent, change []float64, lowerIsBetter bool, bound float64) (Comparison, error) {
	if len(parent) != len(change) {
		return Comparison{}, fmt.Errorf("stats: %d parent runs against %d change runs", len(parent), len(change))
	}
	if len(parent) < MinPairs {
		return Comparison{}, fmt.Errorf("stats: %d pairs, need at least %d", len(parent), MinPairs)
	}
	better := func(a, b float64) bool { // a reads better than b
		if lowerIsBetter {
			return a < b
		}
		return a > b
	}
	c := Comparison{Pairs: len(parent), ParentMedian: Median(parent), ChangeMedian: Median(change)}
	c.ParentQ1, c.ParentQ3 = Quartiles(parent)
	for i := range parent {
		switch {
		case better(change[i], parent[i]):
			c.Wins++
		case better(parent[i], change[i]):
			c.Losses++
		}
	}
	iqr := c.ParentQ3 - c.ParentQ1
	apart := math.Abs(c.ChangeMedian-c.ParentMedian) > iqr
	nine := func(n int) bool { return float64(n) >= 0.9*float64(c.Pairs) }
	allBetter := true
	for _, ch := range change {
		for _, p := range parent {
			if !better(ch, p) {
				allBetter = false
			}
		}
	}
	worseBy := (c.ChangeMedian - c.ParentMedian) / math.Abs(c.ParentMedian)
	if !lowerIsBetter {
		worseBy = -worseBy
	}
	switch {
	case nine(c.Wins) && apart && better(c.ChangeMedian, c.ParentMedian):
		c.Verdict = Improved
	case worseBy > bound && nine(c.Losses) && apart:
		c.Verdict = Regressed
	case worseBy > bound:
		c.Verdict = Unresolved
	case allBetter || iqr <= bound*math.Abs(c.ParentMedian):
		c.Verdict = Within
	default:
		c.Verdict = Unresolved
	}
	return c, nil
}
