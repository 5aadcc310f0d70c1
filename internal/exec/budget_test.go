package exec_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"mdq/internal/card"
	. "mdq/internal/exec"
	"mdq/internal/serve"
	"mdq/internal/simweb"
)

// TestRunBudgetCallCap: a call-capped budget on the request context
// aborts the run with the typed budget error once the executor's
// invoker has charged the cap — the travel plan needs far more than
// five service calls.
func TestRunBudgetCallCap(t *testing.T) {
	w, p := travelPlan(t, simweb.PlanSTopology())
	b := serve.NewBudget(0, 5)
	ctx, cancel := b.Context(context.Background())
	defer cancel()
	r := &Runner{Registry: w.Registry, Cache: card.NoCache}
	res, err := r.Run(ctx, p)
	if res != nil {
		t.Fatal("capped run still produced a result")
	}
	if !errors.Is(err, serve.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *serve.BudgetError
	if !errors.As(err, &be) || be.Reason != "calls" {
		t.Fatalf("err = %v, want *BudgetError with calls reason", err)
	}
	if b.Calls() <= 5 {
		t.Fatalf("budget recorded %d calls, expected it to have charged past the cap", b.Calls())
	}
}

// TestRunBudgetDeadline: a deadline that expires during execution
// surfaces as the budget error, not as the raw context cancellation
// it causes. An already-expired deadline is the deterministic
// worst case of "expires mid-run".
func TestRunBudgetDeadline(t *testing.T) {
	w, p := travelPlan(t, simweb.PlanSTopology())
	b := serve.NewBudget(time.Nanosecond, 0)
	time.Sleep(time.Millisecond)
	ctx, cancel := b.Context(context.Background())
	defer cancel()
	r := &Runner{Registry: w.Registry, Cache: card.NoCache}
	if _, err := r.Run(ctx, p); !errors.Is(err, serve.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *serve.BudgetError
	err := b.Err()
	if !errors.As(err, &be) || be.Reason != "deadline" {
		t.Fatalf("budget err = %v, want deadline violation", err)
	}
}

// TestRunFragmentBudget: the same budget enforcement holds on the
// worker-side fragment path — a capped fragment aborts with the
// typed error instead of streaming partial tuples as a success.
func TestRunFragmentBudget(t *testing.T) {
	w, p := travelPlan(t, simweb.PlanSTopology())
	b := serve.NewBudget(0, 3)
	ctx, cancel := b.Context(context.Background())
	defer cancel()
	r := &Runner{Registry: w.Registry, Cache: card.NoCache}
	ix := NewVarIndex(p)
	res, err := r.RunFragment(ctx, p, chainS, []Tuple{NewTuple(ix)}, nil)
	if res != nil {
		t.Fatal("capped fragment still returned a result")
	}
	if !errors.Is(err, serve.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// TestBudgetAbortNoGoroutineLeak: repeated budget aborts — deadline
// and call-cap, full runs and fragments — leave no stage goroutines
// behind.
func TestBudgetAbortNoGoroutineLeak(t *testing.T) {
	w, p := travelPlan(t, simweb.PlanSTopology())
	r := &Runner{Registry: w.Registry, Cache: card.NoCache}
	ix := NewVarIndex(p)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		b := serve.NewBudget(0, 2)
		ctx, cancel := b.Context(context.Background())
		if _, err := r.Run(ctx, p); !errors.Is(err, serve.ErrBudgetExceeded) {
			t.Fatalf("run %d: err = %v, want ErrBudgetExceeded", i, err)
		}
		cancel()

		db := serve.NewBudget(time.Nanosecond, 0)
		ctx, cancel = db.Context(context.Background())
		if _, err := r.RunFragment(ctx, p, chainS, []Tuple{NewTuple(ix)}, nil); !errors.Is(err, serve.ErrBudgetExceeded) {
			t.Fatalf("fragment %d: err = %v, want ErrBudgetExceeded", i, err)
		}
		cancel()
	}
	settleGoroutines(t, before)
}
