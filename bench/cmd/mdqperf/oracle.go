package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"mdq/bench/workload"
	"mdq/internal/cq"
	"mdq/internal/exec"
	"mdq/internal/opt"
	"mdq/internal/plan"
	"mdq/internal/schema"
	"mdq/internal/service"
	"mdq/internal/simweb"
)

// worldRegistry builds a fresh registry of the named world, as
// mdqserve and mdqworker do for -world.
func worldRegistry(name string) (*service.Registry, error) {
	switch name {
	case "travel":
		return simweb.NewTravelWorld(simweb.TravelOptions{}).Registry, nil
	case "zipf":
		return simweb.NewZipfWorld(0, 0, 0).Registry, nil
	default:
		return nil, fmt.Errorf("no workload runs on world %q", name)
	}
}

// bindQuery parses, binds and resolves a request's template the way
// mdqserve's /query handler does for a string binding.
func bindQuery(reg *service.Registry, r workload.Request) (*cq.Query, error) {
	tpl, err := cq.ParseTemplate(r.Template)
	if err != nil {
		return nil, fmt.Errorf("parsing template: %w", err)
	}
	q, err := tpl.Bind(map[string]schema.Value{r.Param: schema.S(r.Value)})
	if err != nil {
		return nil, fmt.Errorf("binding template: %w", err)
	}
	sch, err := reg.Schema()
	if err != nil {
		return nil, err
	}
	if err := q.Resolve(sch); err != nil {
		return nil, fmt.Errorf("resolving query: %w", err)
	}
	return q, nil
}

// renderRow prints a result row the way mdqserve's response does.
func renderRow(row []schema.Value) []string {
	out := make([]string, len(row))
	for i, v := range row {
		switch v.Kind {
		case schema.StringValue:
			out[i] = v.Str
		case schema.DateValue:
			out[i] = v.Time().Format("2006-01-02")
		default:
			out[i] = strings.TrimSuffix(strconv.FormatFloat(v.Num, 'f', 2, 64), ".00")
		}
	}
	return out
}

func rowKey(row []string) string { return strings.Join(row, "\x1f") }

// oracle holds the full answer set of every distinct bound query of a
// workload, as a multiset of rendered rows. Which k rows a server
// returns depends on the plan it chose, and feedback may change that
// plan mid-run; membership in the full set does not.
type oracle struct {
	answers map[string]map[string]int // AnswerKey → row → multiplicity
	sizes   map[string]int            // AnswerKey → |A|
}

// drainFetches lifts every fetch factor far above any service's page
// count, so a K=0 run drains chunked services to their last page.
const drainFetches = 1 << 20

// buildOracle computes the answer sets in-process on a fresh world.
func buildOracle(w *workload.Workload) (*oracle, error) {
	reg, err := worldRegistry(w.World)
	if err != nil {
		return nil, err
	}
	o := &oracle{answers: map[string]map[string]int{}, sizes: map[string]int{}}
	cache := opt.NewPlanCache(16) // one search serves every binding
	for _, r := range workload.Distinct(w.Requests) {
		q, err := bindQuery(reg, r)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s=%s: %w", r.Param, r.Value, err)
		}
		optimizer := &opt.Optimizer{ChooseMethod: reg.MethodChooser(), Parallelism: opt.AutoParallelism, Cache: cache, CacheSalt: reg.CacheSalt()}
		res, err := optimizer.OptimizeTemplate(q)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s=%s: optimizing: %w", r.Param, r.Value, err)
		}
		for _, n := range res.Best.Nodes {
			if n.Kind == plan.Service {
				n.Fetches = drainFetches
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		out, err := (&exec.Runner{Registry: reg, K: 0}).Run(ctx, res.Best)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("oracle: %s=%s: executing: %w", r.Param, r.Value, err)
		}
		set := make(map[string]int, len(out.Rows))
		for _, row := range out.Rows {
			set[rowKey(renderRow(row))]++
		}
		o.answers[r.AnswerKey()] = set
		o.sizes[r.AnswerKey()] = len(out.Rows)
	}
	return o, nil
}

// check reports why rows are not a correct answer to r, or "". Rows
// are correct when there are min(k, |A|) of them and each occurs in A
// at least as often as in the response.
func (o *oracle) check(r workload.Request, rows [][]string) string {
	set, ok := o.answers[r.AnswerKey()]
	if !ok {
		return "no answer set for this request"
	}
	want := r.K
	if n := o.sizes[r.AnswerKey()]; n < want {
		want = n
	}
	if len(rows) != want {
		return fmt.Sprintf("%d rows, want min(k=%d, |A|=%d)", len(rows), r.K, o.sizes[r.AnswerKey()])
	}
	seen := make(map[string]int, len(rows))
	for _, row := range rows {
		k := rowKey(row)
		seen[k]++
		if seen[k] > set[k] {
			if set[k] == 0 {
				return fmt.Sprintf("row %q is not an answer", row)
			}
			return fmt.Sprintf("row %q returned %d times, the answer set holds it %d times", row, seen[k], set[k])
		}
	}
	return ""
}
