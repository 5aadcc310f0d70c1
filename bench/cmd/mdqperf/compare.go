package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"mdq/bench/stats"
	"mdq/bench/workload"
)

// runFile is what -out writes and -compare reads: every workload's
// metrics of one invocation.
type runFile struct {
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	Workloads map[string]*result `json:"workloads"`
}

func writeRunFile(path string, b *bench, results []*result) error {
	rf := runFile{Seed: b.seed, Seconds: b.seconds, Traced: b.traced, Workloads: map[string]*result{}}
	for _, r := range results {
		rf.Workloads[r.Workload] = r
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf runFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// runCompare reads alternating parent and change run files — parent1
// change1 parent2 change2 …, in the order the pairs were run — and
// prints one row per (workload, end-to-end metric) with the verdict of
// stats.Compare. It exits 1 when any row regressed.
func runCompare(paths []string) int {
	if len(paths)%2 != 0 || len(paths) < 2*stats.MinPairs {
		return fail(fmt.Errorf("-compare needs at least %d parent/change pairs of files, got %d files", stats.MinPairs, len(paths)))
	}
	var parents, changes []*runFile
	for i, p := range paths {
		rf, err := readRunFile(p)
		if err != nil {
			return fail(err)
		}
		if i%2 == 0 {
			parents = append(parents, rf)
		} else {
			changes = append(changes, rf)
		}
	}
	values := func(files []*runFile, side, wl, metric string) ([]float64, error) {
		out := make([]float64, len(files))
		for i, rf := range files {
			m, ok := rf.Workloads[wl].metric(metric)
			if !ok {
				return nil, fmt.Errorf("%s run %d has no %s of %s", side, i+1, metric, wl)
			}
			out[i] = m.Value
		}
		return out, nil
	}
	fmt.Printf("%-12s %-18s %12s %25s %12s %7s  %s\n", "workload", "metric", "parent", "[q1, q3]", "change", "wins", "verdict")
	regressed := false
	for _, wl := range workload.Names() {
		if parents[0].Workloads[wl] == nil {
			continue
		}
		for _, def := range endToEnd {
			p, err := values(parents, "parent", wl, def.Name)
			if err != nil {
				return fail(err)
			}
			c, err := values(changes, "change", wl, def.Name)
			if err != nil {
				return fail(err)
			}
			cmp, err := stats.Compare(p, c, def.Better == "lower", def.Bound)
			if err != nil {
				return fail(err)
			}
			fmt.Printf("%-12s %-18s %12.4f [%11.4f,%11.4f] %12.4f %4d/%-2d  %s\n", wl, def.Name,
				cmp.ParentMedian, cmp.ParentQ1, cmp.ParentQ3, cmp.ChangeMedian, cmp.Wins, cmp.Pairs, cmp.Verdict)
			regressed = regressed || cmp.Verdict == stats.Regressed
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func (r *result) metric(name string) (metricValue, bool) {
	if r == nil {
		return metricValue{}, false
	}
	m, ok := r.Metrics[name]
	return m, ok
}

// selfcheck runs the suite twice on the current tree and fails when
// an end-to-end metric of the second run is worse than the first's by
// more than its own bound: a benchmark that cannot agree with itself
// cannot hold a change to that bound.
func (b *bench) selfcheck(ctx context.Context, names []string) int {
	b.traced = false
	var runs [2][]*result
	for i := range runs {
		fmt.Printf("\n#### selfcheck run %d of 2\n", i+1)
		res, err := b.runAll(ctx, names)
		if err != nil {
			return fail(err)
		}
		runs[i] = res
	}
	fmt.Printf("\n%-12s %-18s %12s %12s %9s %7s\n", "workload", "metric", "run 1", "run 2", "differs", "bound")
	bad := 0
	for i, first := range runs[0] {
		for _, def := range endToEnd {
			a, c := first.Metrics[def.Name].Value, runs[1][i].Metrics[def.Name].Value
			diff := (c - a) / a
			if diff < 0 {
				diff = -diff
			}
			mark := ""
			if diff > def.Bound {
				mark = "  DISAGREES"
				bad++
			}
			fmt.Printf("%-12s %-18s %12.4f %12.4f %8.1f%% %6.0f%%%s\n", first.Workload, def.Name, a, c, diff*100, def.Bound*100, mark)
		}
	}
	if bad > 0 {
		return fail(fmt.Errorf("selfcheck: %d end-to-end metrics differ between two runs of the same code by more than their bound", bad))
	}
	return 0
}
