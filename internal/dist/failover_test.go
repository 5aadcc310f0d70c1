package dist_test

// Differential failover suite: every injected fault — refused
// connections, mid-stream kills at each frame boundary, sync flaps,
// whole-fleet outages — must either leave the result byte-identical to
// the no-fault run (failover succeeded) or surface the documented
// typed error (ErrNoLiveWorkers, *serve.BudgetError). FaultTransport
// scripts are deterministic, so a failing case replays exactly.

import (
	"context"
	"errors"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"mdq/internal/card"
	"mdq/internal/cost"
	. "mdq/internal/dist"
	"mdq/internal/exec"
	"mdq/internal/opt"
	"mdq/internal/serve"
	"mdq/internal/service"
)

// seqReference runs the plain in-process optimizer for a world — the
// no-fault ground truth every failover search is compared against.
func seqReference(t *testing.T, w world) *opt.Result {
	t.Helper()
	reg, sch := w.make()
	q := resolve(t, w.text, sch)
	seq := &opt.Optimizer{Metric: cost.ExecTime{}, Estimator: card.Config{Mode: card.OneCall},
		K: 10, ChooseMethod: reg.MethodChooser()}
	res, err := seq.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertSameOptimize pins the byte-identical search contract: cost,
// feasibility, and canonical plan signature.
func assertSameOptimize(t *testing.T, want, got *opt.Result) {
	t.Helper()
	if got.Cost != want.Cost || got.Feasible != want.Feasible {
		t.Fatalf("cost %g/%v, reference %g/%v", got.Cost, got.Feasible, want.Cost, want.Feasible)
	}
	if gs, ws := got.Best.Signature(), want.Best.Signature(); gs != ws {
		t.Fatalf("plan %s, reference %s", gs, ws)
	}
}

// downMembership attaches a membership view that marks a worker down
// on its first failure — the fastest deterministic eviction for tests.
func downMembership(co *Coordinator) *Membership {
	m := NewMembership(co.Workers)
	m.DownAfter = 1
	co.Membership = m
	return m
}

// TestSearchFailoverDifferential: killing each worker in turn (a
// refused connection from the first call on) must leave the
// distributed search result byte-identical to the sequential
// reference, on every world at 2 and 3 workers — the dead worker's
// shard re-runs whole on a live worker.
func TestSearchFailoverDifferential(t *testing.T) {
	for _, w := range worlds {
		w := w
		t.Run(w.name, func(t *testing.T) {
			want := seqReference(t, w)
			for _, n := range []int{2, 3} {
				for victim := 0; victim < n; victim++ {
					co, _ := localCluster(t, w, n)
					faults := wrapFaults(co)
					m := downMembership(co)
					faults[victim].Refuse(true)
					got, err := co.Optimize(context.Background(), resolve(t, w.text, mustSchema(t, co.Registry)))
					if err != nil {
						t.Fatalf("%d workers, victim %d: %v", n, victim, err)
					}
					assertSameOptimize(t, want, got)
					if faults[victim].Injected() == 0 {
						t.Fatalf("%d workers, victim %d: no fault was ever injected", n, victim)
					}
					if m.State(victim) != StateDown {
						t.Fatalf("%d workers, victim %d: state %v, want down", n, victim, m.State(victim))
					}
				}
			}
		})
	}
}

// TestSearchFailoverHTTPDeadWorker: the same differential over real
// HTTP against a genuinely dead server (closed socket, real
// connection-refused classification through the transport).
func TestSearchFailoverHTTPDeadWorker(t *testing.T) {
	w := worlds[2]
	want := seqReference(t, w)
	co, _ := httpCluster(t, w, 2)
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()
	co.Workers[1] = &HTTPTransport{Base: deadURL}
	m := downMembership(co)
	co.Retry = RetryPolicy{Backoff: time.Millisecond}

	got, err := co.Optimize(context.Background(), resolve(t, w.text, mustSchema(t, co.Registry)))
	if err != nil {
		t.Fatal(err)
	}
	assertSameOptimize(t, want, got)
	if m.State(1) != StateDown {
		t.Fatalf("dead worker state %v, want down", m.State(1))
	}
	snap := m.Snapshot()
	if snap[1].LastError == "" {
		t.Fatal("dead worker's snapshot row carries no error")
	}
}

// TestExecuteFailoverDifferential: with each worker in turn refusing
// every fragment execution (search still works — the executor died,
// not the process), ExecutePlan must stay byte-identical to the local
// reference: the victim's fragments re-dispatch to live hosting
// candidates.
func TestExecuteFailoverDifferential(t *testing.T) {
	for _, w := range worlds {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for _, n := range []int{2, 3} {
				injected := false
				for victim := 0; victim < n; victim++ {
					co, _ := localCluster(t, w, n)
					faults := wrapFaults(co)
					faults[victim].FailNext(OpExecute, 1<<20)
					p := optimizeOn(t, co, w.text)
					local := &exec.Runner{Registry: co.Registry, Cache: card.OneCall, K: 10}
					want, err := local.Run(context.Background(), p)
					if err != nil {
						t.Fatal(err)
					}
					got, err := co.ExecutePlan(context.Background(), p)
					if err != nil {
						t.Fatalf("%d workers, victim %d: %v", n, victim, err)
					}
					assertSameExecution(t, want, got)
					if faults[victim].Injected() > 0 {
						injected = true
					}
				}
				// Fragments cover the plan, so over a full victim sweep at
				// least one run must actually have exercised failover.
				if !injected {
					t.Fatalf("%d workers: no victim ever received a fragment", n)
				}
			}
		})
	}
}

// TestExecuteFailoverMidStreamKill: a worker dying *mid-stream* (exact
// frame boundaries scripted) re-dispatches the fragment to another
// candidate, and the resume cursor splices the two streams without
// duplicating or dropping tuples — byte-identical over both
// transports.
func TestExecuteFailoverMidStreamKill(t *testing.T) {
	w := worlds[0] // travel: proliferative fragments, many frames
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
			kills := 0
			for victim := 0; victim < 2; victim++ {
				co, _ := cl.mk(t, w, 2)
				faults := wrapFaults(co)
				downMembership(co)
				co.BatchSize = 2
				faults[victim].KillExecuteAfter(1, -1)
				p := optimizeOn(t, co, w.text)
				local := &exec.Runner{Registry: co.Registry, Cache: card.OneCall, K: 10}
				want, err := local.Run(context.Background(), p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := co.ExecutePlan(context.Background(), p)
				if err != nil {
					t.Fatalf("victim %d: %v", victim, err)
				}
				assertSameExecution(t, want, got)
				kills += faults[victim].Kills()
			}
			if kills == 0 {
				t.Fatal("no mid-stream kill ever fired across the victim sweep")
			}
		})
	}
}

// TestFailoverFrameBoundarySweep kills the victim at *every* frame
// boundary of its fragment streams (sampled when there are many) and
// demands a byte-identical result each time — the resume-cursor dedup
// exercised at every splice point.
func TestFailoverFrameBoundarySweep(t *testing.T) {
	w := worlds[2] // zipf: cheap enough to run the whole sweep
	mk := func() (*Coordinator, []*FaultTransport) {
		co, _ := localCluster(t, w, 2)
		faults := wrapFaults(co)
		co.BatchSize = 2
		co.K = 0 // full drain: deterministic frame counts run to run
		return co, faults
	}

	// Clean instrumented run: reference rows and the frame-count
	// envelope the sweep iterates over.
	co, faults := mk()
	p := optimizeOn(t, co, w.text)
	local := &exec.Runner{Registry: co.Registry, Cache: card.OneCall, K: 0}
	want, err := local.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := co.ExecutePlan(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	assertSameExecution(t, want, clean)
	maxFrames := 0
	for _, ft := range faults {
		if ft.MaxFrames() > maxFrames {
			maxFrames = ft.MaxFrames()
		}
	}
	if maxFrames == 0 {
		t.Fatal("clean run streamed no batch frames — the sweep would test nothing")
	}

	// Every boundary 0..maxFrames, sampled down to 8 points (always
	// keeping both ends) when the stream is long.
	var points []int
	if maxFrames <= 7 {
		for k := 0; k <= maxFrames; k++ {
			points = append(points, k)
		}
	} else {
		t.Logf("sampling 8 of %d frame boundaries", maxFrames+1)
		for i := 0; i < 8; i++ {
			points = append(points, i*maxFrames/7)
		}
	}

	kills := 0
	for _, k := range points {
		for victim := 0; victim < 2; victim++ {
			co, faults := mk()
			faults[victim].KillExecuteAfter(k, 1)
			got, err := co.ExecutePlan(context.Background(), optimizeOn(t, co, w.text))
			if err != nil {
				t.Fatalf("kill at frame %d on victim %d: %v", k, victim, err)
			}
			assertSameExecution(t, want, got)
			kills += faults[victim].Kills()
		}
	}
	if kills == 0 {
		t.Fatal("no kill fired anywhere in the sweep")
	}
}

// TestSyncFlapTolerated: a worker dropping every bound-sync exchange
// (a missed heartbeat, not a failed search) must not change the search
// result — syncing is pure pruning optimization.
func TestSyncFlapTolerated(t *testing.T) {
	w := worlds[0] // travel: long enough a search that syncs actually happen
	want := seqReference(t, w)
	co, _ := localCluster(t, w, 2)
	faults := wrapFaults(co)
	co.SyncInterval = time.Millisecond
	faults[1].FlapEvery(OpSync, 1)

	got, err := co.Optimize(context.Background(), resolve(t, w.text, mustSchema(t, co.Registry)))
	if err != nil {
		t.Fatal(err)
	}
	assertSameOptimize(t, want, got)
	t.Logf("sync attempts against the flapping worker: %d", faults[1].Calls(OpSync))
}

// TestSyncFailureFeedsMembership: a mid-sync transport error counts as
// a missed heartbeat against the worker — passive health evidence —
// while a successful search RPC resurrects it.
func TestSyncFailureFeedsMembership(t *testing.T) {
	co, _ := localCluster(t, worlds[2], 2)
	faults := wrapFaults(co)
	m := NewMembership(co.Workers)
	co.Membership = m
	faults[1].FlapEvery(OpSync, 1)
	co.SyncInterval = time.Millisecond

	if _, err := co.Optimize(context.Background(), resolve(t, worlds[2].text, mustSchema(t, co.Registry))); err != nil {
		t.Fatal(err)
	}
	// The search against worker 1 succeeded, so whatever sync failures
	// accumulated mid-flight, a success resets the count — the worker
	// must not be down after a successful search.
	if m.State(1) == StateDown {
		t.Fatal("successful search left the worker down")
	}
	// Direct evidence: a sync failure alone degrades the worker.
	m2 := NewMembership(co.Workers)
	m2.ReportFailure(1, errors.New("sync: connection reset"))
	if m2.State(1) != StateSuspect {
		t.Fatalf("one missed heartbeat: %v, want suspect", m2.State(1))
	}
}

// TestAllWorkersDown: a fleet with every worker down fails fast with
// the typed ErrNoLiveWorkers — for both the search and the execution
// plane — instead of timing out against dead sockets.
func TestAllWorkersDown(t *testing.T) {
	w := worlds[2]
	co, _ := localCluster(t, w, 2)
	wrapFaults(co)
	m := downMembership(co)

	// Precompute hosting and the plan while the fleet is up (the
	// long-lived deployment shape), then take everything down.
	hosts, err := co.DiscoverHosts(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	co.Hosts = hosts
	p := optimizeOn(t, co, w.text)
	m.ReportFailure(0, errors.New("probe: connection refused"))
	m.ReportFailure(1, errors.New("probe: connection refused"))

	if _, err := co.Optimize(context.Background(), resolve(t, w.text, mustSchema(t, co.Registry))); !errors.Is(err, ErrNoLiveWorkers) {
		t.Fatalf("search on a dead fleet: %v, want ErrNoLiveWorkers", err)
	}
	if _, err := co.ExecutePlan(context.Background(), p); !errors.Is(err, ErrNoLiveWorkers) {
		t.Fatalf("execution on a dead fleet: %v, want ErrNoLiveWorkers", err)
	}
}

// TestRetryBudgetExhausted: when every attempt up to the retry cap
// fails transiently, the last transient error surfaces (still typed
// transient, so callers can tell it from a permanent failure).
func TestRetryBudgetExhausted(t *testing.T) {
	co, _ := localCluster(t, worlds[2], 2)
	faults := wrapFaults(co)
	faults[0].Refuse(true)
	faults[1].Refuse(true)

	_, err := co.Optimize(context.Background(), resolve(t, worlds[2].text, mustSchema(t, co.Registry)))
	if err == nil {
		t.Fatal("search against a fully refusing fleet succeeded")
	}
	if !IsTransient(err) {
		t.Fatalf("exhausted retries surfaced %v, want a transient-typed error", err)
	}
	// Default policy: 1 initial + 2 retries per shard, 2 shards.
	if got := faults[0].Calls(OpSearch) + faults[1].Calls(OpSearch); got != 6 {
		t.Fatalf("search attempts = %d, want 6 (3 per shard)", got)
	}
}

// TestRetryDisabled: MaxRetries < 0 means a transient failure surfaces
// on first occurrence — the dial differential tests pin the taxonomy
// with.
func TestRetryDisabled(t *testing.T) {
	co, _ := localCluster(t, worlds[2], 2)
	faults := wrapFaults(co)
	co.Retry = RetryPolicy{MaxRetries: -1}
	faults[0].FailNext(OpSearch, 1)

	_, err := co.Optimize(context.Background(), resolve(t, worlds[2].text, mustSchema(t, co.Registry)))
	if err == nil || !IsTransient(err) {
		t.Fatalf("no-retry policy: %v, want the first transient failure", err)
	}
	if got := faults[0].Calls(OpSearch); got != 1 {
		t.Fatalf("worker 0 saw %d search attempts, want exactly 1", got)
	}
}

// TestRetryHook: every re-attempt reports (operation, worker) to the
// OnRetry hook — what mdqserve's retry counters are built on.
func TestRetryHook(t *testing.T) {
	w := worlds[2]
	co, _ := localCluster(t, w, 2)
	faults := wrapFaults(co)
	type retry struct{ op, worker string }
	var mu sync.Mutex
	var retries []retry
	co.OnRetry = func(op, worker string) {
		mu.Lock()
		retries = append(retries, retry{op, worker})
		mu.Unlock()
	}

	faults[0].FailNext(OpSearch, 1)
	if _, err := co.Optimize(context.Background(), resolve(t, w.text, mustSchema(t, co.Registry))); err != nil {
		t.Fatal(err)
	}
	faults[0].FailNext(OpExecute, 1)
	faults[1].FailNext(OpExecute, 1)
	if _, err := co.ExecutePlan(context.Background(), optimizeOn(t, co, w.text)); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	var searches, executes int
	for _, r := range retries {
		switch r.op {
		case OpSearch:
			searches++
		case OpExecute:
			executes++
		default:
			t.Fatalf("unexpected retry op %q", r.op)
		}
		if r.worker == "" {
			t.Fatal("retry reported an empty worker name")
		}
	}
	if searches != 1 {
		t.Fatalf("search retries = %d, want 1", searches)
	}
	if executes == 0 {
		t.Fatal("no execute retry was ever reported")
	}
}

// TestGossipDegradedFleet: gossip to a refusing worker reports the
// failure but still delivers to the rest; a worker the membership
// marks down is skipped without error (it repairs on rejoin).
func TestGossipDegradedFleet(t *testing.T) {
	co, _ := localCluster(t, worlds[2], 2)
	faults := wrapFaults(co)
	svc := co.Registry.Services()[0].Signature().Name
	bumps := []service.EpochBump{{Service: svc, Epoch: 1}}

	faults[0].Refuse(true)
	err := co.Gossip(context.Background(), bumps)
	if !IsTransient(err) {
		t.Fatalf("gossip to a refusing worker: %v, want transient", err)
	}
	if faults[1].Calls(OpGossip) != 1 {
		t.Fatalf("live worker saw %d gossip deliveries, want 1 (delivery must not stop at the first failure)", faults[1].Calls(OpGossip))
	}

	m := downMembership(co)
	m.ReportFailure(0, errors.New("probe failed"))
	if err := co.Gossip(context.Background(), bumps); err != nil {
		t.Fatalf("gossip with the dead worker skipped: %v", err)
	}
	if faults[0].Calls(OpGossip) != 1 {
		t.Fatal("gossip dialed a worker marked down")
	}
}

// TestRetryNoDoubleCharge: a fragment killed mid-stream and re-run
// elsewhere charges the query budget exactly once — only the completed
// attempt reports calls, and the resume cursor keeps replayed tuples
// out of the result. Clean run and failover run must agree on rows
// AND on every charged call.
func TestRetryNoDoubleCharge(t *testing.T) {
	w := worlds[2]
	run := func(script func([]*FaultTransport)) (*exec.Result, int64, int) {
		co, _ := localCluster(t, w, 2)
		faults := wrapFaults(co)
		co.BatchSize = 1 // every tuple its own frame: kills fire early
		co.K = 0         // full drain: deterministic call accounting
		if script != nil {
			script(faults)
		}
		b := serve.NewBudget(0, 0)
		ctx, cancel := b.Context(context.Background())
		defer cancel()
		res, err := co.ExecutePlan(ctx, optimizeOn(t, co, w.text))
		if err != nil {
			t.Fatal(err)
		}
		kills := 0
		for _, ft := range faults {
			kills += ft.Kills()
		}
		return res, b.Calls(), kills
	}

	want, cleanCalls, _ := run(nil)
	if cleanCalls == 0 {
		t.Fatal("clean run charged no calls — the comparison would be vacuous")
	}
	totalKills := 0
	for victim := 0; victim < 2; victim++ {
		victim := victim
		got, gotCalls, kills := run(func(faults []*FaultTransport) {
			faults[victim].KillExecuteAfter(1, 1)
		})
		assertSameExecution(t, want, got)
		if gotCalls != cleanCalls {
			t.Fatalf("victim %d: failover run charged %d calls, clean run %d — retries double-charged",
				victim, gotCalls, cleanCalls)
		}
		totalKills += kills
	}
	if totalKills == 0 {
		t.Fatal("no kill fired — the no-double-charge claim was never exercised")
	}
}

// TestBudgetDeadlineDuringStall: a deadline expiring while a dispatch
// is stalled mid-call surfaces as the typed *serve.BudgetError — never
// as a transport failure or a retry-exhaustion error.
func TestBudgetDeadlineDuringStall(t *testing.T) {
	w := worlds[2]
	co, _ := localCluster(t, w, 2)
	faults := wrapFaults(co)
	p := optimizeOn(t, co, w.text)
	faults[0].Stall(OpExecute, true)
	faults[1].Stall(OpExecute, true)

	b := serve.NewBudget(50*time.Millisecond, 0)
	ctx, cancel := b.Context(context.Background())
	defer cancel()
	_, err := co.ExecutePlan(ctx, p)
	var be *serve.BudgetError
	if !errors.As(err, &be) || be.Reason != "deadline" {
		t.Fatalf("stalled dispatch under a deadline: %v, want *serve.BudgetError{deadline}", err)
	}
	if IsTransient(err) {
		t.Fatal("a budget trip must never surface as transient")
	}
}

// TestBudgetDeadlineDuringBackoff: the deadline tripping while the
// retry loop is *waiting between attempts* also surfaces as the typed
// budget error, not as the transient failure that triggered the retry.
func TestBudgetDeadlineDuringBackoff(t *testing.T) {
	w := worlds[2]
	co, _ := localCluster(t, w, 2)
	faults := wrapFaults(co)
	p := optimizeOn(t, co, w.text)
	faults[0].FailNext(OpExecute, 1<<20)
	faults[1].FailNext(OpExecute, 1<<20)
	co.Retry = RetryPolicy{Backoff: 500 * time.Millisecond, MaxBackoff: 500 * time.Millisecond}

	b := serve.NewBudget(40*time.Millisecond, 0)
	ctx, cancel := b.Context(context.Background())
	defer cancel()
	_, err := co.ExecutePlan(ctx, p)
	var be *serve.BudgetError
	if !errors.As(err, &be) || be.Reason != "deadline" {
		t.Fatalf("deadline during retry backoff: %v, want *serve.BudgetError{deadline}", err)
	}
}

// TestFailoverSettlesNoGoroutineLeak drives every new failure path —
// pre-dispatch refusal, mid-stream kill, sync flap, gossip failure,
// retry exhaustion, a whole-fleet outage, a stalled dispatch under a
// deadline — and then requires the goroutine count to settle back to
// baseline (the PR 7 settle contract extended to failover).
func TestFailoverSettlesNoGoroutineLeak(t *testing.T) {
	w := worlds[2]
	ctx := context.Background()
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		// Worker dies pre-dispatch; fragment fails over.
		co, _ := localCluster(t, w, 2)
		faults := wrapFaults(co)
		faults[0].FailNext(OpExecute, 1)
		if _, err := co.ExecutePlan(ctx, optimizeOn(t, co, w.text)); err != nil {
			t.Fatalf("run %d: pre-dispatch failover: %v", i, err)
		}

		// Worker dies mid-stream; resume cursor splices the retry.
		co2, _ := localCluster(t, w, 2)
		faults2 := wrapFaults(co2)
		co2.BatchSize = 2
		faults2[0].KillExecuteAfter(0, -1)
		if _, err := co2.ExecutePlan(ctx, optimizeOn(t, co2, w.text)); err != nil {
			t.Fatalf("run %d: mid-stream failover: %v", i, err)
		}

		// Worker dies during the sync loop; search completes anyway.
		co3, _ := localCluster(t, w, 2)
		faults3 := wrapFaults(co3)
		co3.SyncInterval = time.Millisecond
		faults3[1].FlapEvery(OpSync, 1)
		if _, err := co3.Optimize(ctx, resolve(t, w.text, mustSchema(t, co3.Registry))); err != nil {
			t.Fatalf("run %d: sync flap: %v", i, err)
		}

		// Worker dies during gossip; delivery continues elsewhere.
		co4, _ := localCluster(t, w, 2)
		faults4 := wrapFaults(co4)
		faults4[0].Refuse(true)
		svc := co4.Registry.Services()[0].Signature().Name
		if err := co4.Gossip(ctx, []service.EpochBump{{Service: svc, Epoch: 1}}); !IsTransient(err) {
			t.Fatalf("run %d: gossip failure: %v", i, err)
		}

		// Retry budget exhausted: the error path must also settle.
		co5, _ := localCluster(t, w, 2)
		faults5 := wrapFaults(co5)
		faults5[0].Refuse(true)
		faults5[1].Refuse(true)
		if _, err := co5.Optimize(ctx, resolve(t, w.text, mustSchema(t, co5.Registry))); err == nil {
			t.Fatalf("run %d: fully refusing fleet succeeded", i)
		}

		// Whole fleet down: typed fast-fail on both planes.
		co6, _ := localCluster(t, w, 2)
		wrapFaults(co6)
		hosts, err := co6.DiscoverHosts(ctx)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		co6.Hosts = hosts
		p6 := optimizeOn(t, co6, w.text)
		m6 := downMembership(co6)
		m6.ReportFailure(0, errors.New("down"))
		m6.ReportFailure(1, errors.New("down"))
		if _, err := co6.Optimize(ctx, resolve(t, w.text, mustSchema(t, co6.Registry))); !errors.Is(err, ErrNoLiveWorkers) {
			t.Fatalf("run %d: dead-fleet search: %v", i, err)
		}
		if _, err := co6.ExecutePlan(ctx, p6); !errors.Is(err, ErrNoLiveWorkers) {
			t.Fatalf("run %d: dead-fleet execute: %v", i, err)
		}

		// Stalled dispatch under a budget deadline.
		co7, _ := localCluster(t, w, 2)
		faults7 := wrapFaults(co7)
		p7 := optimizeOn(t, co7, w.text)
		faults7[0].Stall(OpExecute, true)
		faults7[1].Stall(OpExecute, true)
		b := serve.NewBudget(25*time.Millisecond, 0)
		bctx, bcancel := b.Context(ctx)
		if _, err := co7.ExecutePlan(bctx, p7); !errors.Is(err, serve.ErrBudgetExceeded) {
			t.Fatalf("run %d: stalled dispatch: %v", i, err)
		}
		bcancel()
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

// TestRejoinRefreshesStaleHosts: a worker that was down when the
// hosting snapshot was discovered carries an empty hosting set; once
// it is alive again, ExecutePlan must refresh the snapshot and use it
// — found live when a coordinator's cached snapshot outlived a worker
// restart and the *other* worker then died, stranding the query with
// ErrNoLiveWorkers despite a healthy fleet member.
func TestRejoinRefreshesStaleHosts(t *testing.T) {
	w := worlds[2]
	co, _ := localCluster(t, w, 2)
	wrapFaults(co)
	m := downMembership(co)
	p := optimizeOn(t, co, w.text)
	local := &exec.Runner{Registry: co.Registry, Cache: card.OneCall, K: 10}
	want, err := local.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}

	// The snapshot was taken while worker 0 was unreachable…
	hosts, err := co.DiscoverHosts(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	hosts[0] = map[string]bool{}
	co.Hosts = hosts
	// …worker 0 is back up, and worker 1 has since died.
	m.ReportFailure(1, errors.New("probe: connection refused"))
	if m.State(1) != StateDown {
		t.Fatalf("worker 1 state %v, want down", m.State(1))
	}

	got, err := co.ExecutePlan(context.Background(), p)
	if err != nil {
		t.Fatalf("stale snapshot was not refreshed for the rejoined worker: %v", err)
	}
	assertSameExecution(t, want, got)
}
