package dist_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"mdq/internal/serve"
)

// TestExecutePlanBudgetCallCap: a call-capped budget on the
// coordinator's context aborts distributed execution with the typed
// budget error — the worker's derived budget trips near the
// services, and LocalTransport hands the typed error straight back.
func TestExecutePlanBudgetCallCap(t *testing.T) {
	w := worlds[0] // travel: needs dozens of calls
	co, _ := localCluster(t, w, 2)
	p := optimizeOn(t, co, w.text)
	b := serve.NewBudget(0, 2)
	ctx, cancel := b.Context(context.Background())
	defer cancel()
	res, err := co.ExecutePlan(ctx, p)
	if res != nil {
		t.Fatal("capped distributed run still produced a result")
	}
	if !errors.Is(err, serve.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// TestExecutePlanBudgetExpiredDeadline: an expired deadline is caught
// at dispatch before any fragment ships.
func TestExecutePlanBudgetExpiredDeadline(t *testing.T) {
	w := worlds[2] // zipf: cheapest world
	co, _ := localCluster(t, w, 2)
	p := optimizeOn(t, co, w.text)
	b := serve.NewBudget(time.Nanosecond, 0)
	time.Sleep(time.Millisecond)
	ctx, cancel := b.Context(context.Background())
	defer cancel()
	if _, err := co.ExecutePlan(ctx, p); !errors.Is(err, serve.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *serve.BudgetError
	if !errors.As(b.Err(), &be) || be.Reason != "deadline" {
		t.Fatalf("budget err = %v, want deadline violation", b.Err())
	}
}

// TestExecutePlanBudgetHTTP: a worker-side budget trip survives the
// HTTP wire as a typed error — the envelope/frame carries the
// budget marker and HTTPTransport re-wraps ErrBudgetExceeded, so the
// coordinator detects the violation even though its own budget
// never charged a call.
func TestExecutePlanBudgetHTTP(t *testing.T) {
	w := worlds[0]
	co, _ := httpCluster(t, w, 2)
	p := optimizeOn(t, co, w.text)
	b := serve.NewBudget(0, 1)
	ctx, cancel := b.Context(context.Background())
	defer cancel()
	_, err := co.ExecutePlan(ctx, p)
	if !errors.Is(err, serve.ErrBudgetExceeded) {
		t.Fatalf("err over HTTP = %v, want ErrBudgetExceeded", err)
	}
	// The violated dimension survives the wire too: the transport
	// rebuilds the typed *serve.BudgetError from the error frame.
	var be *serve.BudgetError
	if !errors.As(err, &be) || be.Reason != "calls" {
		t.Fatalf("err over HTTP = %v, want *BudgetError with reason \"calls\"", err)
	}
}

// TestExecutePlanBudgetAccounting: an uncapped budget rides along
// without interfering, and afterwards holds the total logical calls
// the fleet issued — the serving layer's per-request accounting. The
// zipf world's single fragment is still streaming when the output
// reaches K, so its calls reach the budget only through the satisfied
// stop's accounting frame.
func TestExecutePlanBudgetAccounting(t *testing.T) {
	for _, w := range []world{worlds[0], worlds[2]} { // travel, zipf (truncated at K)
		t.Run(w.name, func(t *testing.T) {
			co, _ := localCluster(t, w, 2)
			p := optimizeOn(t, co, w.text)
			b := serve.NewBudget(time.Minute, 0)
			ctx, cancel := b.Context(context.Background())
			defer cancel()
			res, err := co.ExecutePlan(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			var want int64
			for _, v := range res.Stats.Calls {
				want += v
			}
			if want == 0 {
				t.Fatal("distributed run recorded no calls")
			}
			if got := b.Calls(); got != want {
				t.Fatalf("budget charged %d calls, fleet accounting says %d", got, want)
			}
		})
	}
}
