package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestBudgetUnlimited(t *testing.T) {
	b := NewBudget(0, 0)
	if err := b.Check(); err != nil {
		t.Fatalf("unlimited budget tripped: %v", err)
	}
	if err := b.Charge(1_000_000); err != nil {
		t.Fatalf("unlimited budget tripped on charge: %v", err)
	}
	if got := b.Calls(); got != 1_000_000 {
		t.Fatalf("Calls = %d, want 1000000", got)
	}
	if _, ok := b.CallsLeft(); ok {
		t.Fatal("uncapped budget reported CallsLeft ok")
	}
	if _, ok := b.Deadline(); ok {
		t.Fatal("deadline-free budget reported a deadline")
	}
}

func TestBudgetCallCap(t *testing.T) {
	b := NewBudget(0, 3)
	if err := b.Charge(2); err != nil {
		t.Fatalf("within cap: %v", err)
	}
	if left, ok := b.CallsLeft(); !ok || left != 1 {
		t.Fatalf("CallsLeft = %d,%v, want 1,true", left, ok)
	}
	if err := b.Charge(1); err != nil {
		t.Fatalf("at cap: %v", err)
	}
	err := b.Charge(1)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over cap error = %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Reason != "calls" {
		t.Fatalf("reason = %+v, want calls", err)
	}
	// Sticky: a later Check reports the same violation.
	if err := b.Check(); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("tripped budget Check = %v", err)
	}
}

// TestBudgetOverspent: Overspent reports a call cap exceeded by what
// was charged, and nothing else — not an uncapped budget, not a cap
// met exactly, not an expired deadline.
func TestBudgetOverspent(t *testing.T) {
	if err := NewBudget(0, 0).Overspent(); err != nil {
		t.Fatalf("uncapped budget overspent: %v", err)
	}
	b := NewBudget(0, 5)
	b.Charge(5)
	if err := b.Overspent(); err != nil {
		t.Fatalf("cap met exactly reads as overspent: %v", err)
	}
	b.Charge(2)
	var be *BudgetError
	if err := b.Overspent(); !errors.As(err, &be) || be.Reason != "calls" {
		t.Fatalf("Overspent = %v, want the calls BudgetError", err)
	}
	late := NewBudget(time.Nanosecond, 5)
	time.Sleep(time.Millisecond)
	if err := late.Overspent(); err != nil {
		t.Fatalf("expired deadline reads as overspent: %v", err)
	}
}

func TestBudgetDeadline(t *testing.T) {
	b := NewBudget(time.Nanosecond, 0)
	time.Sleep(time.Millisecond)
	err := b.Check()
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("expired deadline Check = %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Reason != "deadline" {
		t.Fatalf("reason = %+v, want deadline", err)
	}
}

func TestBudgetConcurrentChargeTripsOnce(t *testing.T) {
	b := NewBudget(0, 50)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if err := b.Charge(1); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	first := b.Check()
	if !errors.Is(first, ErrBudgetExceeded) {
		t.Fatalf("over-charged budget not tripped: %v", first)
	}
	for i, err := range errs {
		if err != nil && err != first {
			t.Fatalf("goroutine %d saw a different violation: %v vs %v", i, err, first)
		}
	}
}

func TestBudgetContext(t *testing.T) {
	b := NewBudget(time.Hour, 5)
	ctx, cancel := b.Context(context.Background())
	defer cancel()
	if got := FromContext(ctx); got != b {
		t.Fatalf("FromContext = %p, want %p", got, b)
	}
	dl, ok := ctx.Deadline()
	if !ok {
		t.Fatal("budget deadline not applied to context")
	}
	want, _ := b.Deadline()
	if !dl.Equal(want) {
		t.Fatalf("context deadline %v != budget deadline %v", dl, want)
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context returned a budget")
	}
}
