package dist_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	. "mdq/internal/dist"
	"mdq/internal/opt"
	"mdq/internal/serve"
)

// wrapFaults replaces every coordinator transport with a FaultTransport
// around it (the sanctioned fault-injection seam) and speeds the retry
// backoff up to test time scales.
func wrapFaults(co *Coordinator) []*FaultTransport {
	faults := make([]*FaultTransport, len(co.Workers))
	for i, tr := range co.Workers {
		faults[i] = NewFaultTransport(tr)
		co.Workers[i] = faults[i]
	}
	co.Retry = RetryPolicy{Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
	return faults
}

// TestFaultTransportScript pins the fault script semantics: refusal,
// fail-next with recovery, flapping, and the call counters the tests
// lean on.
func TestFaultTransportScript(t *testing.T) {
	co, _ := localCluster(t, worlds[2], 1)
	ft := wrapFaults(co)[0]
	ctx := context.Background()

	// Refuse: every operation fails transiently.
	ft.Refuse(true)
	if err := ft.Probe(ctx); !IsTransient(err) {
		t.Fatalf("refused probe: %v, want transient", err)
	}
	if _, err := ft.Services(ctx); !IsTransient(err) {
		t.Fatalf("refused services: %v, want transient", err)
	}
	ft.Refuse(false)
	if err := ft.Probe(ctx); err != nil {
		t.Fatalf("recovered probe: %v", err)
	}

	// FailNext: exactly n failures, then recovery.
	ft.FailNext(OpProbe, 2)
	for i := 0; i < 2; i++ {
		if err := ft.Probe(ctx); !IsTransient(err) {
			t.Fatalf("fail-next probe %d: %v, want transient", i, err)
		}
	}
	if err := ft.Probe(ctx); err != nil {
		t.Fatalf("probe after fail-next drained: %v", err)
	}

	// FlapEvery: every k-th call fails.
	ft.FlapEvery(OpGossip, 2)
	if err := ft.Gossip(ctx, nil); err != nil {
		t.Fatalf("flap call 1: %v", err)
	}
	if err := ft.Gossip(ctx, nil); !IsTransient(err) {
		t.Fatalf("flap call 2: %v, want transient", err)
	}
	ft.FlapEvery(OpGossip, 0)
	if err := ft.Gossip(ctx, nil); err != nil {
		t.Fatalf("flap cleared: %v", err)
	}

	// 5 probes above: 1 refused, 1 recovered, 2 fail-next, 1 drained.
	if got := ft.Calls(OpProbe); got != 5 {
		t.Fatalf("probe calls = %d, want 5", got)
	}
	// Injected: refused probe + refused services + 2 fail-next + 1 flap.
	if got := ft.Injected(); got != 5 {
		t.Fatalf("injected = %d, want 5", got)
	}
}

// TestFaultTransportStall: a stalled operation blocks until the
// caller's context expires and surfaces the context's own error —
// which must NOT be classified transient (retrying a cancelled call is
// never right).
func TestFaultTransportStall(t *testing.T) {
	co, _ := localCluster(t, worlds[2], 1)
	ft := wrapFaults(co)[0]
	ft.Stall(OpSearch, true)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := ft.Search(ctx, SearchRequest{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled search: %v, want deadline exceeded", err)
	}
	if IsTransient(err) {
		t.Fatal("a context expiry mid-call must not be transient")
	}
}

// TestFaultTransportKillConsumesOnlyOnFire: an execution shorter than
// the kill point completes normally and does not consume the scripted
// kill — the contract frame-boundary sweeps depend on.
func TestFaultTransportKillConsumesOnlyOnFire(t *testing.T) {
	w := worlds[2]
	co, _ := localCluster(t, w, 1)
	co.BatchSize = 2
	ft := wrapFaults(co)[0]
	p := optimizeOn(t, co, w.text)

	// A kill point far beyond any real stream never fires.
	ft.KillExecuteAfter(1_000_000, 1)
	if _, err := co.ExecutePlan(context.Background(), p); err != nil {
		t.Fatalf("execution with unreachable kill point: %v", err)
	}
	if ft.Kills() != 0 {
		t.Fatalf("unreachable kill point fired %d times", ft.Kills())
	}
	if ft.MaxFrames() == 0 {
		t.Fatal("MaxFrames recorded no frames for a completed execution")
	}
}

// TestTransientErrorUnwrap: the typed error chain works with
// errors.Is/As through fmt wrapping, and IsTransient sees through
// nesting.
func TestTransientErrorUnwrap(t *testing.T) {
	inner := errors.New("connection refused")
	te := &TransientError{Err: inner}
	wrapped := fmt.Errorf("dist: worker w1: %w", te)
	if !IsTransient(wrapped) {
		t.Fatal("IsTransient missed a wrapped TransientError")
	}
	if !errors.Is(wrapped, inner) {
		t.Fatal("TransientError hid the underlying failure from errors.Is")
	}
	if IsTransient(inner) {
		t.Fatal("a bare error claimed to be transient")
	}
	if IsTransient(nil) {
		t.Fatal("nil claimed to be transient")
	}
}

// TestHTTPTransportClassification pins the wire-level taxonomy: refused
// connections and 5xx responses are transient; 4xx responses are
// permanent; probe failures are always transient.
func TestHTTPTransportClassification(t *testing.T) {
	ctx := context.Background()

	status := http.StatusInternalServerError
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		code := status
		mu.Unlock()
		http.Error(w, "scripted failure", code)
	}))
	defer srv.Close()
	tr := &HTTPTransport{Base: srv.URL}

	// 5xx: the worker is broken, not the request — transient.
	if _, err := tr.Search(ctx, SearchRequest{}); !IsTransient(err) {
		t.Fatalf("500 search: %v, want transient", err)
	}
	if _, err := tr.Sync(ctx, "s", 0); !IsTransient(err) {
		t.Fatalf("500 sync: %v, want transient", err)
	}
	if _, err := tr.ExecuteFragment(ctx, ExecuteRequest{}, nil); !IsTransient(err) {
		t.Fatalf("500 execute: %v, want transient", err)
	}
	if _, err := tr.Services(ctx); !IsTransient(err) {
		t.Fatalf("500 services: %v, want transient", err)
	}
	if err := tr.Probe(ctx); !IsTransient(err) {
		t.Fatalf("500 probe: %v, want transient", err)
	}

	// 4xx: the request is wrong — permanent.
	mu.Lock()
	status = http.StatusBadRequest
	mu.Unlock()
	if _, err := tr.Search(ctx, SearchRequest{}); err == nil || IsTransient(err) {
		t.Fatalf("400 search: %v, want permanent error", err)
	}
	if _, err := tr.ExecuteFragment(ctx, ExecuteRequest{}, nil); err == nil || IsTransient(err) {
		t.Fatalf("400 execute: %v, want permanent error", err)
	}
	// ... except the probe, where any failure is exactly the signal.
	if err := tr.Probe(ctx); !IsTransient(err) {
		t.Fatalf("400 probe: %v, want transient", err)
	}

	// A dead server: every operation is transient.
	deadSrv := httptest.NewServer(http.NotFoundHandler())
	deadURL := deadSrv.URL
	deadSrv.Close()
	dead := &HTTPTransport{Base: deadURL}
	if _, err := dead.Search(ctx, SearchRequest{}); !IsTransient(err) {
		t.Fatalf("refused search: %v, want transient", err)
	}
	if err := dead.Gossip(ctx, nil); !IsTransient(err) {
		t.Fatalf("refused gossip: %v, want transient", err)
	}
	if _, err := dead.ImportTemplates(ctx, []opt.TemplateWireEntry{{}}); !IsTransient(err) {
		t.Fatalf("refused templates: %v, want transient", err)
	}
	if err := dead.Probe(ctx); !IsTransient(err) {
		t.Fatalf("refused probe: %v, want transient", err)
	}
}

// TestHTTPExecuteStreamFaults drives the execute stream decoder with
// scripted wire shapes, written the way a worker from before the hand
// frame codec writes them (json.Encoder): a sequence gap, a truncated
// stream and a line torn mid-frame are transient (re-dispatchable); a
// worker-reported error frame is permanent; a budget frame keeps its
// type; and line framing is tolerant — blank lines, a line far longer
// than the read buffer, a final frame without its newline.
func TestHTTPExecuteStreamFaults(t *testing.T) {
	ctx := context.Background()
	var mode string
	var mu sync.Mutex
	long := strings.Repeat("x", 100<<10)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		m := mode
		mu.Unlock()
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		switch m {
		case "gap":
			enc.Encode(ExecuteFrame{Batch: []WireTuple{{}}, Seq: 0})
			enc.Encode(ExecuteFrame{Batch: []WireTuple{{}}, Seq: 2})
			enc.Encode(ExecuteFrame{Done: &ExecuteResult{Tuples: 2}})
		case "truncated":
			enc.Encode(ExecuteFrame{Batch: []WireTuple{{}}, Seq: 0})
			// no Done frame: the worker vanished mid-stream
		case "torn":
			enc.Encode(ExecuteFrame{Batch: []WireTuple{{}}, Seq: 0})
			io.WriteString(w, `{"batch":[[{"k":"s","s":"Mil`)
		case "framing":
			enc.Encode(ExecuteFrame{Batch: []WireTuple{{{Kind: "s", Str: long}}}, Seq: 0})
			io.WriteString(w, "\n  \r\n")
			io.WriteString(w, `{"done":{"tuples":1}}`)
		case "error":
			enc.Encode(ExecuteFrame{Batch: []WireTuple{{}}, Seq: 0})
			enc.Encode(ExecuteFrame{Error: "dist: fragment exploded"})
		case "budget":
			enc.Encode(ExecuteFrame{Error: "budget tripped", BudgetExceeded: true,
				BudgetReason: "calls", BudgetLimit: "20"})
		}
	}))
	defer srv.Close()
	tr := &HTTPTransport{Base: srv.URL}
	var got []WireTuple
	run := func(m string) error {
		mu.Lock()
		mode = m
		mu.Unlock()
		got = nil
		_, err := tr.ExecuteFragment(ctx, ExecuteRequest{}, func(b []WireTuple) error {
			got = append(got, b...)
			return nil
		})
		return err
	}

	if err := run("gap"); !IsTransient(err) {
		t.Fatalf("seq gap: %v, want transient", err)
	}
	if err := run("truncated"); !IsTransient(err) {
		t.Fatalf("truncated stream: %v, want transient", err)
	}
	if err := run("torn"); !IsTransient(err) || len(got) != 1 {
		t.Fatalf("torn line: %v after %d tuples, want transient after 1", err, len(got))
	}
	if err := run("framing"); err != nil || len(got) != 1 || got[0][0].Str != long {
		t.Fatalf("framing: %v, %d tuples", err, len(got))
	}
	if err := run("error"); err == nil || IsTransient(err) {
		t.Fatalf("worker error frame: %v, want permanent", err)
	}
	err := run("budget")
	var be *serve.BudgetError
	if !errors.As(err, &be) || be.Reason != "calls" {
		t.Fatalf("budget frame: %v, want *serve.BudgetError{calls}", err)
	}
	if IsTransient(err) {
		t.Fatal("a budget trip must never be transient")
	}
}

// TestMembershipStateMachine walks the up → suspect → down → up cycle
// with explicit outcome reports and checks the OnChange notifications,
// snapshot rows and state counts along the way.
func TestMembershipStateMachine(t *testing.T) {
	co, _ := localCluster(t, worlds[2], 2)
	m := NewMembership(co.Workers)
	m.SuspectAfter = 1
	m.DownAfter = 3
	type change struct {
		worker   string
		from, to WorkerState
	}
	var mu sync.Mutex
	var changes []change
	m.OnChange = func(w string, from, to WorkerState) {
		mu.Lock()
		changes = append(changes, change{w, from, to})
		mu.Unlock()
	}

	if m.State(0) != StateUp || !m.Alive(0) {
		t.Fatal("workers must start up")
	}
	m.ReportFailure(0, errors.New("boom 1"))
	if m.State(0) != StateSuspect || !m.Alive(0) {
		t.Fatalf("after 1 failure: %v, want suspect (still dispatchable)", m.State(0))
	}
	m.ReportFailure(0, errors.New("boom 2"))
	if m.State(0) != StateSuspect {
		t.Fatalf("after 2 failures: %v, want suspect", m.State(0))
	}
	m.ReportFailure(0, errors.New("boom 3"))
	if m.State(0) != StateDown || m.Alive(0) {
		t.Fatalf("after 3 failures: %v, want down", m.State(0))
	}
	// Another failure keeps it down, no spurious transition.
	m.ReportFailure(0, errors.New("boom 4"))
	if m.State(0) != StateDown {
		t.Fatalf("down worker moved to %v on a further failure", m.State(0))
	}

	if got := m.Counts(); got["up"] != 1 || got["down"] != 1 || got["suspect"] != 0 {
		t.Fatalf("counts = %v, want 1 up / 1 down", got)
	}
	snap := m.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d rows, want 2", len(snap))
	}
	if snap[0].State != "down" || snap[0].ConsecutiveFailures != 4 || snap[0].LastError == "" {
		t.Fatalf("down row = %+v", snap[0])
	}
	if snap[1].State != "up" || snap[1].ConsecutiveFailures != 0 {
		t.Fatalf("up row = %+v", snap[1])
	}

	// One success resurrects.
	m.ReportSuccess(0)
	if m.State(0) != StateUp {
		t.Fatalf("after success: %v, want up", m.State(0))
	}

	mu.Lock()
	defer mu.Unlock()
	want := []change{
		{"local", StateUp, StateSuspect},
		{"local", StateSuspect, StateDown},
		{"local", StateDown, StateUp},
	}
	if len(changes) != len(want) {
		t.Fatalf("OnChange fired %d times (%v), want %d", len(changes), changes, len(want))
	}
	for i, c := range changes {
		if c != want[i] {
			t.Fatalf("change %d = %+v, want %+v", i, c, want[i])
		}
	}
}

// TestMembershipCheck: one active probe round feeds the state machine
// from Transport.Probe and stamps LastProbe; a refused worker degrades
// and a recovered one resurrects.
func TestMembershipCheck(t *testing.T) {
	co, _ := localCluster(t, worlds[2], 2)
	faults := wrapFaults(co)
	m := NewMembership(co.Workers)
	m.SuspectAfter = 1
	m.DownAfter = 2

	if up := m.Check(context.Background()); up != 2 {
		t.Fatalf("healthy fleet: %d up, want 2", up)
	}
	faults[1].Refuse(true)
	m.Check(context.Background())
	if m.State(1) != StateSuspect {
		t.Fatalf("after 1 failed probe: %v, want suspect", m.State(1))
	}
	if up := m.Check(context.Background()); up != 1 || m.State(1) != StateDown {
		t.Fatalf("after 2 failed probes: %d up, state %v; want 1 up, down", up, m.State(1))
	}
	if m.Snapshot()[1].LastProbe.IsZero() {
		t.Fatal("probe did not stamp LastProbe")
	}
	faults[1].Refuse(false)
	m.Check(context.Background())
	if m.State(1) != StateUp {
		t.Fatalf("after recovery probe: %v, want up", m.State(1))
	}
}

// TestMembershipHealthLoop: the probe loop notices a death and a
// recovery on its own, and stop is idempotent and blocks until the
// loop exits.
func TestMembershipHealthLoop(t *testing.T) {
	co, _ := localCluster(t, worlds[2], 2)
	faults := wrapFaults(co)
	m := NewMembership(co.Workers)
	m.SuspectAfter = 1
	m.DownAfter = 1
	stop := m.HealthLoop(2 * time.Millisecond)
	defer stop()

	faults[0].Refuse(true)
	waitFor(t, time.Second, func() bool { return m.State(0) == StateDown })
	faults[0].Refuse(false)
	waitFor(t, time.Second, func() bool { return m.State(0) == StateUp })
	stop()
	stop() // idempotent
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWorkerStateString pins the metric/fleet label names.
func TestWorkerStateString(t *testing.T) {
	if StateUp.String() != "up" || StateSuspect.String() != "suspect" || StateDown.String() != "down" {
		t.Fatalf("state labels: %s/%s/%s", StateUp, StateSuspect, StateDown)
	}
	if WorkerState(42).String() != "unknown" {
		t.Fatalf("out-of-range state renders %q", WorkerState(42).String())
	}
}

// TestWorkerHealthEndpoint: GET /dist/health answers 200 with the
// worker's serving status, and HTTPTransport.Probe accepts it.
func TestWorkerHealthEndpoint(t *testing.T) {
	co, workers := httpCluster(t, worlds[2], 1)
	tr := co.Workers[0]
	if err := tr.Probe(context.Background()); err != nil {
		t.Fatalf("probe against a live worker: %v", err)
	}
	base := tr.Name()
	resp, err := http.Get(base + "/dist/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || !hr.Executing {
		t.Fatalf("health = %+v, want ok/executing", hr)
	}
	if hr.ActiveSearches != 0 {
		t.Fatalf("idle worker reports %d active searches", hr.ActiveSearches)
	}
	_ = workers
}
