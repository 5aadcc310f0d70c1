// Command mdqperf is the repository's benchmark: it builds mdqserve
// and mdqworker, starts them fresh for each workload, drives POST
// /query over loopback from a closed loop of at most two clients,
// checks every answer against an in-process oracle and prints every
// metric by name. See bench/README.md.
//
// The driver's form measures one workload and ends with one JSON line:
//
//	go run ./bench/cmd/mdqperf --workload hot_single --seed 1 --seconds 20 --trace 0
//
// Without -workload every workload runs in turn:
//
//	go run ./bench/cmd/mdqperf -seed 1 [-traced] [-out run.json]
//	go run ./bench/cmd/mdqperf -compare parent1.json change1.json parent2.json change2.json ...
//	go run ./bench/cmd/mdqperf -selfcheck
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"mdq/bench/workload"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name      = flag.String("workload", "", "run one workload and end with the driver's JSON line (default: all)")
		seed      = flag.Uint64("seed", 1, "seed of the request lists")
		seconds   = flag.Int("seconds", runSeconds, "length of the measured window")
		traceN    = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
		traced    = flag.Bool("traced", false, "same as -trace 1")
		out       = flag.String("out", "", "write every workload's metrics to this JSON file")
		compare   = flag.Bool("compare", false, "compare alternating parent/change -out files given as arguments")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and fail if an end-to-end metric differs by more than its bound")
		printMan  = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *printMan {
		m, err := manifest()
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(m)
		return 0
	}
	if *compare {
		return runCompare(flag.Args())
	}
	if *seconds < 1 || *seconds > 60 {
		return fail(fmt.Errorf("-seconds %d is outside 1..60", *seconds))
	}
	if *traceN != 0 && *traceN != 1 {
		return fail(fmt.Errorf("-trace %d is neither 0 nor 1", *traceN))
	}
	names := workload.Names()
	if *name != "" {
		if _, ok := workload.Lookup(*name); !ok {
			return fail(fmt.Errorf("unknown workload %q (have %v)", *name, names))
		}
		names = []string{*name}
	}

	// A signal cancels the context; every run then returns through the
	// deferred close that stops its servers.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	bins, err := buildBinaries(root)
	if err != nil {
		return fail(err)
	}
	b := &bench{root: root, bins: bins, seed: *seed, seconds: *seconds, traced: *traced || *traceN == 1}
	if *selfcheck {
		return b.selfcheck(ctx, names)
	}
	results, err := b.runAll(ctx, names)
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		if err := writeRunFile(*out, b, results); err != nil {
			return fail(err)
		}
	}
	if *name != "" {
		// The driver reads the last line of standard output.
		line, err := json.Marshal(driverLine(results[0]))
		if err != nil {
			return fail(err)
		}
		fmt.Printf("%s\n", line)
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "mdqperf: %v\n", err)
	return 1
}

// bench is one invocation's settings.
type bench struct {
	root    string
	bins    binaries
	seed    uint64
	seconds int
	traced  bool
}

// runAll runs the named workloads in turn and prints each report. A
// run whose failed share exceeds maxFailedShare is an error.
func (b *bench) runAll(ctx context.Context, names []string) ([]*result, error) {
	var results []*result
	for _, name := range names {
		w, err := workload.Generate(name, b.seed, b.seconds)
		if err != nil {
			return nil, err
		}
		var res *result
		if b.traced {
			res, err = b.runTraced(ctx, w)
		} else {
			res, err = runUntraced(ctx, b.bins, w, b.seconds)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		printReport(w, res, b.traced)
		if share := float64(res.Failed) / float64(res.Attempted); share > maxFailedShare {
			return nil, fmt.Errorf("%s: %d of %d requests failed (share %.4f > %.2f)", name, res.Failed, res.Attempted, share, maxFailedShare)
		}
		results = append(results, res)
	}
	return results, nil
}

// driverLine is the JSON object the driver parses: exactly correct,
// attempted, failed and metrics, each metric a value and a unit.
func driverLine(r *result) any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(r.Metrics))
	for name, m := range r.Metrics {
		metrics[name] = mv{m.Value, m.Unit}
	}
	return struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics}
}

// printReport prints one workload's metrics by name, each with its
// unit, sample count and, for end-to-end metrics, regression bound.
func printReport(w *workload.Workload, r *result, traced bool) {
	kind, defs := "end-to-end (untraced)", endToEnd
	if traced {
		kind, defs = "per-layer (traced run)", perLayer
	}
	fmt.Printf("\n== %s — %s; %d client(s), closed loop; %d attempted, %d failed (share %.4f)\n",
		w.Name, kind, w.Clients, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, def := range defs {
		m, ok := r.Metrics[def.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-38s %14.4f %-6s", def.Name, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf(" n=%-7d", m.Samples)
		} else {
			line += fmt.Sprintf(" %-9s", "")
		}
		if def.Bound > 0 {
			line += fmt.Sprintf(" bound %2.0f%% (%s is better)", def.Bound*100, def.Better)
		}
		fmt.Println(line)
	}
	for _, note := range r.Notes {
		fmt.Println("  note:", note)
	}
}
