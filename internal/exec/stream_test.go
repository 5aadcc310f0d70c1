package exec_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mdq/internal/card"
	"mdq/internal/cost"
	"mdq/internal/cq"
	. "mdq/internal/exec"
	"mdq/internal/opt"
	"mdq/internal/plan"
	"mdq/internal/schema"
	"mdq/internal/service"
	"mdq/internal/simweb"
)

// streamIx borrows the travel plan's variable layout to handcraft
// operator-level tuples against.
func streamIx(t *testing.T) *VarIndex {
	t.Helper()
	_, p := travelPlan(t, simweb.PlanOTopology())
	return NewVarIndex(p)
}

// randTuples generates n tuples binding the given slots to a small
// random numeric domain, so left/right pairs share values on an
// overlapping slot often enough to join.
func randTuples(rng *rand.Rand, ix *VarIndex, slots []int, n, domain int) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		tp := NewTuple(ix)
		for _, s := range slots {
			tp = tp.With(s, schema.N(float64(rng.Intn(domain))))
		}
		out[i] = tp
	}
	return out
}

// feed streams tuples into a fresh channel in order and closes it.
func feed(ts []Tuple, buf int) chan Tuple {
	ch := make(chan Tuple, buf)
	go func() {
		for _, t := range ts {
			ch <- t
		}
		close(ch)
	}()
	return ch
}

// TestStreamJoinMatchesJoinPairs is the operator-level differential:
// for random input sequences across sizes, value overlaps, channel
// buffer capacities and both methods, StreamJoin must emit exactly
// the sequence the materializing JoinPairs produces from the fully
// buffered sides.
func TestStreamJoinMatchesJoinPairs(t *testing.T) {
	ix := streamIx(t)
	rng := rand.New(rand.NewSource(20080808))
	for trial := 0; trial < 300; trial++ {
		method := plan.NestedLoop
		if trial%2 == 1 {
			method = plan.MergeScan
		}
		nl, nr := rng.Intn(12), rng.Intn(12)
		dom := 1 + rng.Intn(4)
		left := randTuples(rng, ix, []int{0, 1}, nl, dom)
		right := randTuples(rng, ix, []int{1, 2}, nr, dom)

		want, err := JoinPairs(method, left, right, nil, ix)
		if err != nil {
			t.Fatal(err)
		}
		var got []Tuple
		buf := 1 + rng.Intn(4)
		err = StreamJoin(context.Background(), method, feed(left, buf), feed(right, buf),
			nil, ix, func(m Tuple) error { got = append(got, m); return nil }, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (%v, %d×%d): %d pairs, JoinPairs %d",
				trial, method, nl, nr, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Fatalf("trial %d (%v): pair %d diverges:\n stream: %v\n batch:  %v",
					trial, method, i, got[i], want[i])
			}
		}
	}
}

// TestStreamJoinEmitStopPropagates: an emit error — the downstream
// "K satisfied" signal — stops the join immediately and surfaces
// unchanged, for both methods, even with producers still live.
func TestStreamJoinEmitStopPropagates(t *testing.T) {
	ix := streamIx(t)
	rng := rand.New(rand.NewSource(1))
	left := randTuples(rng, ix, []int{0, 1}, 8, 1)
	right := randTuples(rng, ix, []int{1, 2}, 8, 1)
	for _, method := range []plan.JoinMethod{plan.NestedLoop, plan.MergeScan} {
		emitted := 0
		err := StreamJoin(context.Background(), method, feed(left, 8), feed(right, 8),
			nil, ix, func(Tuple) error {
				emitted++
				if emitted == 3 {
					return context.Canceled
				}
				return nil
			}, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want the emit error back", method, err)
		}
		if emitted != 3 {
			t.Fatalf("%v: emit called %d times after stop at 3", method, emitted)
		}
	}
}

// TestStreamJoinCancelUnblocks: a cancelled context aborts a join
// whose inputs never produce and never close — the stall case a
// cancellation ladder must get right.
func TestStreamJoinCancelUnblocks(t *testing.T) {
	ix := streamIx(t)
	for _, method := range []plan.JoinMethod{plan.NestedLoop, plan.MergeScan} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			done <- StreamJoin(ctx, method, make(chan Tuple), make(chan Tuple),
				nil, ix, func(Tuple) error { return nil }, nil)
		}()
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v: err = %v, want context.Canceled", method, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%v: join did not unblock on cancellation", method)
		}
	}
}

// TestStreamJoinNestedLoopExcessPeak pins the memory accounting: the
// nested loop's excess buffering is exactly the right tuples that
// arrive while its left side is still open, and the output order is
// unaffected by how many queued up.
func TestStreamJoinNestedLoopExcessPeak(t *testing.T) {
	ix := streamIx(t)
	rng := rand.New(rand.NewSource(2))
	const n = 50
	right := randTuples(rng, ix, []int{1, 2}, n, 2)
	left := randTuples(rng, ix, []int{0, 1}, 2, 2)

	rch := make(chan Tuple, n)
	for _, r := range right {
		rch <- r
	}
	close(rch)
	lch := make(chan Tuple)

	var peak atomic.Int64
	var got []Tuple
	done := make(chan error, 1)
	go func() {
		done <- StreamJoin(context.Background(), plan.NestedLoop, lch, rch,
			nil, ix, func(m Tuple) error { got = append(got, m); return nil }, &peak)
	}()
	// With the left side open and empty, the operator's only progress
	// is consuming the right side into its pending queue.
	deadline := time.Now().Add(5 * time.Second)
	for peak.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("pending peak stuck at %d, want %d", peak.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	for _, l := range left {
		lch <- l
	}
	close(lch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if peak.Load() != n {
		t.Fatalf("excess peak = %d, want exactly %d", peak.Load(), n)
	}
	want, err := JoinPairs(plan.NestedLoop, left, right, nil, ix)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("queued-right nested loop diverged from JoinPairs order")
	}
}

// TestStreamJoinMergeScanNoExcess: merge-scan's buffers are all
// frontier — every retained tuple still pairs with unseen tuples of
// the other side — so the excess gauge must stay untouched.
func TestStreamJoinMergeScanNoExcess(t *testing.T) {
	ix := streamIx(t)
	rng := rand.New(rand.NewSource(3))
	left := randTuples(rng, ix, []int{0, 1}, 40, 2)
	right := randTuples(rng, ix, []int{1, 2}, 40, 2)
	var peak atomic.Int64
	err := StreamJoin(context.Background(), plan.MergeScan, feed(left, 4), feed(right, 4),
		nil, ix, func(Tuple) error { return nil }, &peak)
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() != 0 {
		t.Fatalf("merge-scan raised the excess gauge to %d", peak.Load())
	}
}

// optimizedPlan builds the cost-optimal plan for a world's canonical
// query against its registry — the same shape production runs execute.
func optimizedPlan(t *testing.T, reg *service.Registry, text string) *plan.Plan {
	t.Helper()
	sch, err := reg.Schema()
	if err != nil {
		t.Fatal(err)
	}
	q, err := cq.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Resolve(sch); err != nil {
		t.Fatal(err)
	}
	o := &opt.Optimizer{
		Metric:       cost.ExecTime{},
		Estimator:    card.Config{Mode: card.OneCall},
		K:            10,
		ChooseMethod: reg.MethodChooser(),
	}
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Best
}

// streamWorlds is the differential matrix: join-rich travel, the
// chunked bioinfo chain, and the skewed zipf world.
func streamWorlds() []struct {
	name string
	reg  *service.Registry
	text string
} {
	return []struct {
		name string
		reg  *service.Registry
		text string
	}{
		{"travel", simweb.NewTravelWorld(simweb.TravelOptions{}).Registry, simweb.RunningExampleText},
		{"bioinfo", simweb.NewBioWorld().Registry, simweb.BioExampleText},
		{"zipf", simweb.NewZipfWorld(0, 0, 0).Registry, simweb.ZipfExampleText},
	}
}

// TestStreamingMatchesMaterialized is the runner-level differential:
// on every simweb world, the streaming runtime returns results
// tuple-identical (head, row values, binding payloads, call counts)
// to the seed's materializing runtime — full drains and K-limited
// runs alike.
func TestStreamingMatchesMaterialized(t *testing.T) {
	for _, w := range streamWorlds() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			p := optimizedPlan(t, w.reg, w.text)
			for _, k := range []int{0, 3} {
				mat := &Runner{Registry: w.reg, Cache: card.OneCall, K: k, Materialize: true}
				want, err := mat.Run(context.Background(), p)
				if err != nil {
					t.Fatal(err)
				}
				str := &Runner{Registry: w.reg, Cache: card.OneCall, K: k, BufferSize: 4}
				got, err := str.Run(context.Background(), p)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want.Head, got.Head) {
					t.Fatalf("k=%d: head %v vs %v", k, got.Head, want.Head)
				}
				if !reflect.DeepEqual(want.Rows, got.Rows) {
					t.Fatalf("k=%d: rows diverge:\n streaming:     %v\n materializing: %v",
						k, got.Rows, want.Rows)
				}
				if !reflect.DeepEqual(want.Tuples, got.Tuples) {
					t.Fatalf("k=%d: binding payloads diverge", k)
				}
				// Full drains do identical work. What a K-limited run
				// saves is bounded, free of timing, by
				// TestEarlyTerminationBoundsDownstreamCalls.
				if k == 0 && !reflect.DeepEqual(want.Stats.Calls, got.Stats.Calls) {
					t.Fatalf("calls diverge: %v vs %v", got.Stats.Calls, want.Stats.Calls)
				}
			}
		})
	}
}

// TestStreamingMatchesMaterializedParallel repeats the differential
// with ParallelCalls, where upstream emission order within a stage is
// nondeterministic in both runtimes — so the contract weakens to the
// same answer multiset and the same call counts.
func TestStreamingMatchesMaterializedParallel(t *testing.T) {
	for _, w := range streamWorlds() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			p := optimizedPlan(t, w.reg, w.text)
			collect := func(materialize bool) (map[string]int, map[string]int64) {
				r := &Runner{Registry: w.reg, Cache: card.OneCall,
					ParallelCalls: true, Materialize: materialize}
				res, err := r.Run(context.Background(), p)
				if err != nil {
					t.Fatal(err)
				}
				m := map[string]int{}
				for _, row := range res.Rows {
					key := ""
					for _, v := range row {
						key += v.Key() + "|"
					}
					m[key]++
				}
				return m, res.Stats.Calls
			}
			wantRows, wantCalls := collect(true)
			gotRows, gotCalls := collect(false)
			if !reflect.DeepEqual(wantRows, gotRows) {
				t.Fatalf("parallel answer multisets diverge:\n streaming:     %v\n materializing: %v",
					gotRows, wantRows)
			}
			if !reflect.DeepEqual(wantCalls, gotCalls) {
				t.Fatalf("parallel call counts diverge: %v vs %v", gotCalls, wantCalls)
			}
		})
	}
}

// TestStreamingFirstRowPrecedesCompletion: the streaming runtime's
// first answer lands strictly before the run completes on a clocked
// plan, and Result.FirstRow records it.
func TestStreamingFirstRowPrecedesCompletion(t *testing.T) {
	w, p := travelPlan(t, simweb.PlanSTopology())
	r := &Runner{Registry: w.Registry, Cache: card.OneCall, Clock: ScaledClock{Factor: 0.0005}}
	res, err := r.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstRow <= 0 {
		t.Fatal("FirstRow not recorded")
	}
	if res.FirstRow >= res.Elapsed {
		t.Fatalf("first row at %v, not before completion at %v", res.FirstRow, res.Elapsed)
	}
}

// TestStreamingSettlesNoGoroutineLeak: the streaming runtime's three
// remaining early-exit paths — satisfied at K, external cancellation
// mid-run, and a mid-stream service failure — leave no stage or join
// goroutines behind. (Budget trips are covered by
// TestBudgetAbortNoGoroutineLeak.)
func TestStreamingSettlesNoGoroutineLeak(t *testing.T) {
	w, p := travelPlan(t, simweb.PlanSTopology())
	flakyReg, fw := flakyTravelWorld(t, 3, "")
	q, err := simweb.RunningExampleQuery(fw.Schema)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := fw.BuildPlan(q, simweb.PlanOTopology(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		// Satisfied at K: cancellation propagates up the pipeline.
		kr := &Runner{Registry: w.Registry, Cache: card.OneCall, K: 2, BufferSize: 2}
		if res, err := kr.Run(context.Background(), p); err != nil || len(res.Rows) != 2 {
			t.Fatalf("run %d: K run: %v (rows %d)", i, err, len(res.Rows))
		}

		// External cancellation racing the run.
		ctx, cancel := context.WithCancel(context.Background())
		go func() { time.Sleep(time.Duration(i) * 100 * time.Microsecond); cancel() }()
		cr := &Runner{Registry: w.Registry, Cache: card.OneCall, BufferSize: 2}
		if _, err := cr.Run(ctx, p); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: cancel run: %v", i, err)
		}
		cancel()

		// Mid-stream service failure.
		fr := &Runner{Registry: flakyReg, Cache: card.NoCache, BufferSize: 2}
		if _, err := fr.Run(context.Background(), fp); err == nil {
			t.Fatalf("run %d: flaky run succeeded", i)
		}
	}
	settleGoroutines(t, before)
}
