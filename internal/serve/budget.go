// Package serve is the production serving layer shared by mdqserve
// and mdqworker: per-query execution budgets (deadline + service-call
// caps) carried on the request context and enforced deep inside the
// optimizer and executor, admission control with backpressure for a
// saturated fleet, a ring-buffered slow-query log, and a
// dependency-free Prometheus-text metrics registry. The package
// imports nothing from the rest of the module, so every layer —
// internal/opt, internal/exec, internal/dist, the CLIs — can depend
// on it without cycles.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrBudgetExceeded is the sentinel every budget violation wraps:
// errors.Is(err, ErrBudgetExceeded) detects an aborted query whatever
// layer tripped the limit.
var ErrBudgetExceeded = errors.New("serve: query budget exceeded")

// BudgetError reports which limit a query ran out of. It wraps
// ErrBudgetExceeded.
type BudgetError struct {
	// Reason is "deadline" or "calls".
	Reason string
	// Limit echoes the configured limit (the deadline's duration or
	// the call cap) for the error message.
	Limit string
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("serve: query budget exceeded: %s limit %s reached", e.Reason, e.Limit)
}

// Unwrap makes errors.Is(err, ErrBudgetExceeded) true.
func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// Budget is one query's execution budget: an absolute deadline and a
// cap on the logical service calls the query may issue. The zero
// limits mean "unlimited". A Budget is carried on the request context
// (WithBudget/FromContext) and consulted by the optimizer's search
// walk, the executor's service invoker, and the distributed
// coordinator's fragment dispatch, so an expired deadline or an
// exhausted call budget aborts the query cleanly wherever it happens
// to be. All methods are safe for concurrent use — execution charges
// calls from many goroutines at once.
//
// Once a limit trips, the budget stays tripped (Err is sticky): every
// later Check/Charge in any goroutine reports the same violation, so
// a query's partial work cannot race past the first abort.
type Budget struct {
	deadline time.Time     // zero = no deadline
	dur      time.Duration // the configured relative deadline, for messages
	maxCalls int64         // 0 = unlimited
	calls    atomic.Int64
	tripped  atomic.Pointer[BudgetError]
}

// NewBudget builds a budget from relative limits: d > 0 sets the
// deadline d from now, maxCalls > 0 caps the logical service calls.
// Both zero returns a budget that never trips (still usable for call
// accounting).
func NewBudget(d time.Duration, maxCalls int64) *Budget {
	b := &Budget{maxCalls: maxCalls, dur: d}
	if d > 0 {
		b.deadline = time.Now().Add(d)
	}
	return b
}

// Deadline returns the absolute deadline and whether one is set.
func (b *Budget) Deadline() (time.Time, bool) {
	return b.deadline, !b.deadline.IsZero()
}

// Remaining returns the time left before the deadline; ok is false
// when no deadline is set.
func (b *Budget) Remaining() (time.Duration, bool) {
	if b.deadline.IsZero() {
		return 0, false
	}
	return time.Until(b.deadline), true
}

// Calls returns the logical service calls charged so far.
func (b *Budget) Calls() int64 { return b.calls.Load() }

// CallsLeft returns the remaining call budget; ok is false when the
// budget is uncapped.
func (b *Budget) CallsLeft() (int64, bool) {
	if b.maxCalls <= 0 {
		return 0, false
	}
	left := b.maxCalls - b.calls.Load()
	if left < 0 {
		left = 0
	}
	return left, true
}

// trip records the first violation and returns the sticky error.
func (b *Budget) trip(reason, limit string) error {
	e := &BudgetError{Reason: reason, Limit: limit}
	b.tripped.CompareAndSwap(nil, e)
	return b.tripped.Load()
}

// Err returns the budget violation if one has occurred: the sticky
// record of an earlier trip, or a deadline that has passed since.
// nil means the query may keep working.
func (b *Budget) Err() error {
	if e := b.tripped.Load(); e != nil {
		return e
	}
	if !b.deadline.IsZero() && !time.Now().Before(b.deadline) {
		return b.trip("deadline", b.dur.String())
	}
	return nil
}

// Check is Err under a name that reads as a verb at call sites
// (`if err := budget.Check(); err != nil { … }`).
func (b *Budget) Check() error { return b.Err() }

// Charge accounts n logical service calls against the budget and
// returns the violation if the cap (or the deadline) is now exceeded.
// The calls are recorded even when uncapped, so per-request
// accounting can read Calls afterwards.
func (b *Budget) Charge(n int64) error {
	total := b.calls.Add(n)
	if b.maxCalls > 0 && total > b.maxCalls {
		return b.trip("calls", fmt.Sprintf("%d", b.maxCalls))
	}
	return b.Err()
}

// Overspent returns the calls violation when the calls charged so far
// exceed the cap, nil otherwise. Unlike Err it ignores the deadline:
// it asks whether work already done broke the cap, for a caller whose
// charges land after the calls they account for (the distributed
// coordinator's fragment frames).
func (b *Budget) Overspent() error {
	if b.maxCalls > 0 && b.calls.Load() > b.maxCalls {
		return b.trip("calls", fmt.Sprintf("%d", b.maxCalls))
	}
	return nil
}

// Context returns a child context that carries the budget and — when
// a deadline is set — expires with it, so everything downstream that
// honors context cancellation (service invocations, fragment streams
// over HTTP) aborts when the budget does. The CancelFunc must be
// called to release the timer.
func (b *Budget) Context(ctx context.Context) (context.Context, context.CancelFunc) {
	ctx = WithBudget(ctx, b)
	if b.deadline.IsZero() {
		return context.WithCancel(ctx)
	}
	return context.WithDeadline(ctx, b.deadline)
}

// budgetKey is the context key for the request budget.
type budgetKey struct{}

// WithBudget attaches a budget to a context.
func WithBudget(ctx context.Context, b *Budget) context.Context {
	return context.WithValue(ctx, budgetKey{}, b)
}

// FromContext returns the context's budget, or nil when the request
// carries none.
func FromContext(ctx context.Context) *Budget {
	b, _ := ctx.Value(budgetKey{}).(*Budget)
	return b
}
