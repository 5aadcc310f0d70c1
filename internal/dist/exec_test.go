package dist_test

import (
	"context"
	"reflect"
	"testing"

	"mdq/internal/card"
	"mdq/internal/cost"
	. "mdq/internal/dist"
	"mdq/internal/exec"
	"mdq/internal/opt"
	"mdq/internal/plan"
)

// optimizeOn runs a plain sequential optimization against a registry
// (the coordinator's), returning the plan distributed execution and
// the local reference both run.
func optimizeOn(t *testing.T, co *Coordinator, text string) *plan.Plan {
	t.Helper()
	o := &opt.Optimizer{
		Metric:       cost.ExecTime{},
		Estimator:    card.Config{Mode: card.OneCall},
		K:            10,
		ChooseMethod: co.Registry.MethodChooser(),
	}
	res, err := o.Optimize(resolve(t, text, mustSchema(t, co.Registry)))
	if err != nil {
		t.Fatal(err)
	}
	return res.Best
}

// assertSameExecution pins the byte-identical contract: head, row
// values and full tuple bindings must match the local reference.
func assertSameExecution(t *testing.T, want, got *exec.Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Head, got.Head) {
		t.Fatalf("head %v, local reference %v", got.Head, want.Head)
	}
	if !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Fatalf("rows diverge:\n distributed: %v\n local:       %v", got.Rows, want.Rows)
	}
	if !reflect.DeepEqual(want.Tuples, got.Tuples) {
		t.Fatalf("tuples diverge:\n distributed: %v\n local:       %v", got.Tuples, want.Tuples)
	}
}

// TestDistributedExecutionMatchesLocal is the tentpole differential:
// fragment execution across 2 and 3 LocalTransport workers returns
// tuple-identical results to a coordinator-local exec.Runner run, on
// all three simweb worlds.
func TestDistributedExecutionMatchesLocal(t *testing.T) {
	for _, w := range worlds {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for _, n := range []int{2, 3} {
				co, _ := localCluster(t, w, n)
				p := optimizeOn(t, co, w.text)
				local := &exec.Runner{Registry: co.Registry, Cache: card.OneCall, K: 10}
				want, err := local.Run(context.Background(), p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := co.ExecutePlan(context.Background(), p)
				if err != nil {
					t.Fatalf("%d workers: %v", n, err)
				}
				assertSameExecution(t, want, got)
				if len(got.Rows) == 0 {
					t.Fatalf("%d workers: no rows produced", n)
				}
				if len(got.Stats.Calls) == 0 {
					t.Fatalf("%d workers: no worker-side call accounting", n)
				}
			}
		})
	}
}

// TestDistributedExecutionHTTP runs the same differential over real
// loopback HTTP: streamed tuple batches, frame decoding, accounting.
func TestDistributedExecutionHTTP(t *testing.T) {
	for _, w := range []world{worlds[0], worlds[2]} { // travel (join-rich), zipf (cheap)
		w := w
		t.Run(w.name, func(t *testing.T) {
			co, _ := httpCluster(t, w, 2)
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
		})
	}
}

// TestPartitionPlan pins the partitioning rule: fragments cover every
// atom exactly once, are contiguous chains of the plan DAG, only land
// on workers hosting all their services, and spread deterministically.
func TestPartitionPlan(t *testing.T) {
	w := worlds[0]
	co, _ := localCluster(t, w, 2)
	p := optimizeOn(t, co, w.text)

	hostAll := map[string]bool{}
	for _, svc := range co.Registry.Services() {
		hostAll[svc.Signature().Name] = true
	}

	frags, err := PartitionPlan(p, []map[string]bool{hostAll, hostAll})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, f := range frags {
		if len(f.Atoms) == 0 {
			t.Fatal("empty fragment")
		}
		if f.Worker < 0 || f.Worker > 1 {
			t.Fatalf("fragment assigned to worker %d", f.Worker)
		}
		for i, ai := range f.Atoms {
			if seen[ai] {
				t.Fatalf("atom %d in two fragments", ai)
			}
			seen[ai] = true
			if i > 0 {
				prev, cur := p.ServiceNode[f.Atoms[i-1]], p.ServiceNode[ai]
				if len(cur.In) != 1 || cur.In[0] != prev {
					t.Fatalf("fragment %v not a chain at atom %d", f.Atoms, ai)
				}
			}
		}
	}
	if len(seen) != len(p.ServiceNode) {
		t.Fatalf("fragments cover %d of %d atoms", len(seen), len(p.ServiceNode))
	}

	// Determinism: partitioning the same plan again yields the same
	// fragments and worker assignments.
	again, err := PartitionPlan(p, []map[string]bool{hostAll, hostAll})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(frags, again) {
		t.Fatalf("partition not deterministic: %v vs %v", frags, again)
	}

	// A service nobody hosts is an explicit error.
	if _, err := PartitionPlan(p, []map[string]bool{{}, {}}); err == nil {
		t.Fatal("partition with no hosting worker did not error")
	}

	// Hosting constraints route fragments: with one worker hosting
	// everything and one hosting nothing, all fragments land on the
	// capable worker.
	frags, err = PartitionPlan(p, []map[string]bool{{}, hostAll})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frags {
		if f.Worker != 1 {
			t.Fatalf("fragment %v landed on non-hosting worker %d", f.Atoms, f.Worker)
		}
	}
}

// TestExecuteFragmentDisabled: a worker with execution disabled
// refuses fragment requests instead of running them.
func TestExecuteFragmentDisabled(t *testing.T) {
	w := worlds[2]
	co, workers := localCluster(t, w, 2)
	for _, wk := range workers {
		wk.ExecuteDisabled = true
	}
	p := optimizeOn(t, co, w.text)
	if _, err := co.ExecutePlan(context.Background(), p); err == nil {
		t.Fatal("execution against disabled workers did not error")
	}
}

// recordingTransport is a LocalTransport that keeps the last fragment
// request it forwarded.
type recordingTransport struct {
	LocalTransport
	req *ExecuteRequest
}

func (t *recordingTransport) ExecuteFragment(ctx context.Context, req ExecuteRequest, sink func([]WireTuple) error) (*ExecuteResult, error) {
	t.req = &req
	return t.LocalTransport.ExecuteFragment(ctx, req, sink)
}

// TestExecuteFragmentSatisfiedStop: a worker whose sink answers
// exec.ErrSatisfied partway through a batch still returns the full
// accounting frame, and its Tuples counts exactly the tuples handed to
// the sink — the whole batch the sink stopped reading, none of the
// ones produced after it.
func TestExecuteFragmentSatisfiedStop(t *testing.T) {
	w := worlds[2] // zipf: one fragment, streaming far past K
	co, workers := localCluster(t, w, 1)
	rec := &recordingTransport{LocalTransport: co.Workers[0].(LocalTransport)}
	co.Workers[0] = rec
	co.K = 0 // drain, so the recorded request is an ordinary one
	p := optimizeOn(t, co, w.text)
	if _, err := co.ExecutePlan(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if rec.req == nil {
		t.Fatal("no fragment was dispatched")
	}
	req := *rec.req
	req.BatchSize = 2
	handed, batches := 0, 0
	res, err := workers[0].ExecuteFragment(context.Background(), req, func(batch []WireTuple) error {
		handed += len(batch)
		if batches++; batches == 2 {
			return exec.ErrSatisfied
		}
		return nil
	})
	if err != nil {
		t.Fatalf("satisfied stop failed: %v", err)
	}
	if res.Tuples != handed || handed != 4 {
		t.Fatalf("frame reports %d tuples, sink was handed %d (want 4)", res.Tuples, handed)
	}
	if len(res.Calls) == 0 || len(res.Fetches) == 0 {
		t.Fatalf("satisfied stop returned no call accounting: %+v", res)
	}
}
