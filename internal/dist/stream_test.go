package dist_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mdq/internal/card"
	. "mdq/internal/dist"
	"mdq/internal/exec"
	"mdq/internal/serve"
)

// TestExecutePlanEarlyK: reaching K at the coordinator's output
// cancels the in-flight fragment streams, and the truncated result is
// still byte-identical to a coordinator-local K-limited run — over
// both transports.
func TestExecutePlanEarlyK(t *testing.T) {
	w := worlds[0] // travel: proliferative enough that K stops mid-stream
	clusters := []struct {
		name string
		mk   func(t testing.TB, w world, n int) (*Coordinator, []*Worker)
	}{
		{"local", localCluster},
		{"http", httpCluster},
	}
	for _, cl := range clusters {
		cl := cl
		t.Run(cl.name, func(t *testing.T) {
			co, _ := cl.mk(t, w, 2)
			co.K = 2
			p := optimizeOn(t, co, w.text)
			local := &exec.Runner{Registry: co.Registry, Cache: card.OneCall, K: 2}
			want, err := local.Run(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := co.ExecutePlan(context.Background(), p)
			if err != nil {
				t.Fatalf("early-K execution failed: %v", err)
			}
			assertSameExecution(t, want, got)
			if len(got.Rows) != 2 {
				t.Fatalf("rows = %d, want 2", len(got.Rows))
			}
			if got.FirstRow <= 0 || got.FirstRow > got.Elapsed {
				t.Fatalf("FirstRow = %v (elapsed %v), want within the run", got.FirstRow, got.Elapsed)
			}
		})
	}
}

// TestExecutePlanEarlyKSavesWork: the K-satisfied cancellation
// reaches the workers — the fleet's recorded call accounting for a
// K=2 run stays below the full drain's (stats count completed
// fragments, so cancelled siblings never inflate them).
func TestExecutePlanEarlyKSavesWork(t *testing.T) {
	w := worlds[0]
	full, _ := localCluster(t, w, 2)
	full.K = 0
	p := optimizeOn(t, full, w.text)
	fres, err := full.ExecutePlan(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	var fullCalls int64
	for _, v := range fres.Stats.Calls {
		fullCalls += v
	}

	lim, _ := localCluster(t, w, 2)
	lim.K = 2
	lres, err := lim.ExecutePlan(context.Background(), optimizeOn(t, lim, w.text))
	if err != nil {
		t.Fatal(err)
	}
	var limCalls int64
	for _, v := range lres.Stats.Calls {
		limCalls += v
	}
	if limCalls >= fullCalls {
		t.Fatalf("K=2 run recorded %d calls, full drain %d — early termination saved nothing",
			limCalls, fullCalls)
	}
}

// TestExecutePlanMidStreamBudgetTrip: a budget that trips while
// fragments are streaming cancels the sibling branches and surfaces
// as the typed *serve.BudgetError — over both transports — and the
// fleet does nowhere near a full drain's work.
func TestExecutePlanMidStreamBudgetTrip(t *testing.T) {
	w := worlds[0]
	full, _ := localCluster(t, w, 2)
	full.K = 0
	p := optimizeOn(t, full, w.text)
	fres, err := full.ExecutePlan(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	var fullCalls int64
	for _, v := range fres.Stats.Calls {
		fullCalls += v
	}

	clusters := []struct {
		name string
		mk   func(t testing.TB, w world, n int) (*Coordinator, []*Worker)
	}{
		{"local", localCluster},
		{"http", httpCluster},
	}
	for _, cl := range clusters {
		cl := cl
		t.Run(cl.name, func(t *testing.T) {
			co, _ := cl.mk(t, w, 2)
			callCap := int64(20) // trips mid-stream: the travel drain needs far more
			b := serve.NewBudget(0, callCap)
			ctx, cancel := b.Context(context.Background())
			defer cancel()
			res, err := co.ExecutePlan(ctx, optimizeOn(t, co, w.text))
			if res != nil {
				t.Fatal("tripped run still produced a result")
			}
			var be *serve.BudgetError
			if !errors.As(err, &be) || be.Reason != "calls" {
				t.Fatalf("err = %v, want *serve.BudgetError with calls reason", err)
			}
			// Concurrent branches each carry the remaining cap at their
			// dispatch, so the fleet can overshoot by a branch — but a
			// cancelled sibling must not run to completion.
			if got := b.Calls(); got >= fullCalls {
				t.Fatalf("fleet charged %d calls after the trip; full drain is %d — siblings were not cancelled",
					got, fullCalls)
			}
		})
	}
}

// TestExecutePlanBufferBound: with per-arc buffers squeezed to 2
// tuples, the dataflow still returns the byte-identical result, and
// the joins' excess gauge stays far below the travel world's
// intermediate-result cardinality (hundreds of tuples) — coordinator
// memory tracks the configured buffers, not what the fleet produces.
func TestExecutePlanBufferBound(t *testing.T) {
	w := worlds[0]
	co, _ := localCluster(t, w, 2)
	var peak atomic.Int64
	co.BufferSize = 2
	co.JoinExcessPeak = &peak
	p := optimizeOn(t, co, w.text)
	local := &exec.Runner{Registry: co.Registry, Cache: card.OneCall, K: 10}
	want, err := local.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := co.ExecutePlan(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	assertSameExecution(t, want, got)
	if peak.Load() > 64 {
		t.Fatalf("join excess peak = %d tuples buffered beyond the frontier — not bounded", peak.Load())
	}
}

// TestExecutePlanSettlesNoGoroutineLeak: the distributed dataflow's
// early exits — satisfied at K, a mid-stream budget trip, an external
// cancellation — leave no dangling node goroutines or fragment
// streams behind.
func TestExecutePlanSettlesNoGoroutineLeak(t *testing.T) {
	w := worlds[0]
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		co, _ := localCluster(t, w, 2)
		co.K = 2
		p := optimizeOn(t, co, w.text)
		if _, err := co.ExecutePlan(context.Background(), p); err != nil {
			t.Fatalf("run %d: early-K: %v", i, err)
		}

		b := serve.NewBudget(0, 10)
		bctx, bcancel := b.Context(context.Background())
		if _, err := co.ExecutePlan(bctx, p); !errors.Is(err, serve.ErrBudgetExceeded) {
			t.Fatalf("run %d: budget trip: %v", i, err)
		}
		bcancel()

		cctx, ccancel := context.WithCancel(context.Background())
		go func() { time.Sleep(time.Duration(i) * 200 * time.Microsecond); ccancel() }()
		if _, err := co.ExecutePlan(cctx, p); err != nil &&
			!errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: external cancel: %v", i, err)
		}
		ccancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines did not settle to baseline %d\n%s",
				before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
