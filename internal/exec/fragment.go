package exec

import (
	"context"
	"fmt"

	"mdq/internal/plan"
)

// RunFragment executes a linear fragment of a plan — a chain of
// service nodes identified by their atom indexes, in topological
// order — against this runner's registry, seeding the chain's head
// with externally supplied tuples instead of the plan's Input node.
// It is the worker half of distributed plan execution: the
// coordinator cuts the plan DAG at joins and at nodes with several
// consumers, ships each chain to a worker together with the tuples
// flowing into it, and joins the streamed-back outputs itself.
//
// The fragment runs through the ordinary stage machinery (one
// goroutine per node, channels along the arcs, logical caching,
// chunked fetching, local predicates), so a chain produces exactly
// the tuples — in exactly the order — the same nodes would produce
// inside a full Run. Two deliberate differences: the runner's K does
// not apply (an intermediate stream must be complete, or downstream
// joins would see a truncated Cartesian plane; the coordinator
// truncates at the output instead), and ParallelCalls is ignored
// (parallel dispatch reorders results, which would break the
// byte-identical contract fragment execution is differential-tested
// under).
//
// When sink is non-nil every produced tuple is handed to it as soon
// as the chain's tail emits it — the streaming path — and
// Result.Tuples stays nil; a sink error cancels the fragment and is
// returned. With a nil sink the tuples are collected in
// Result.Tuples. Result.Head and Result.Rows are always nil: a
// fragment produces intermediate bindings, not projected answers.
//
// A fragment whose consumer has every answer it needs stops early
// without failing: a sink that returns ErrSatisfied, or a ctx ended
// with the cause ErrSatisfied (the coordinator's run holding its K
// rows), is a satisfied stop. The fragment is cancelled and the call
// accounting of what it ran so far is returned with a nil error; a
// ctx cancelled any other way still fails with the context's error.
// The runner's Feedback policy applies to the fragment's services
// afterwards, exactly as in Run, satisfied stops included — this is
// what makes an executing worker's profiles absorb the traffic that
// flowed near them.
func (r *Runner) RunFragment(ctx context.Context, p *plan.Plan, atoms []int, seeds []Tuple, sink func(Tuple) error) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	chain, err := fragmentChain(p, atoms)
	if err != nil {
		return nil, err
	}
	// Parallel dispatch is deliberately disabled so the tail's emission
	// order matches a sequential in-plan run.
	seq := *r
	seq.ParallelCalls = false
	ex := seq.newExecution(ctx, p, chain)
	defer ex.cancel(nil)
	for _, t := range seeds {
		if t.Width() != ex.ix.Len() {
			return nil, fmt.Errorf("exec: fragment seed has %d slots, plan layout has %d", t.Width(), ex.ix.Len())
		}
	}

	// One edge in front of every chain node plus one behind the tail,
	// with the seeds as the source stage and the sink as the last.
	edges := make([]*edge, len(chain)+1)
	for i := range edges {
		edges[i] = &edge{ch: make(chan Tuple, r.bufferSize())}
	}
	ex.spawn(func(ctx context.Context) error {
		defer close(edges[0].ch)
		for _, t := range seeds {
			if err := emit(ctx, edges[:1], t); err != nil {
				return err
			}
		}
		return nil
	})
	for i, n := range chain {
		ex.spawn(func(ctx context.Context) error { return ex.runService(ctx, n, edges[i], edges[i+1:i+2]) })
	}
	// The sink stage runs on the caller's goroutine; a sink error
	// cancels the run with the error as the cause (ErrSatisfied makes
	// it a satisfied stop), which unblocks the stages still emitting.
	var tuples []Tuple
	for t := range edges[len(chain)].ch {
		if sink == nil {
			tuples = append(tuples, t)
		} else if err := sink(t); err != nil {
			ex.settle(err)
			break
		}
	}
	res, err := ex.wait()
	if err != nil {
		return nil, err
	}
	res.Tuples = tuples
	return res, nil
}

// fragmentChain resolves atom indexes to plan nodes and verifies they
// form a linear chain: each node's only input arc comes from the
// previous node, and each non-tail node's only consumer is the next —
// the shape under which executing the nodes in isolation reproduces
// their in-plan tuple streams exactly.
func fragmentChain(p *plan.Plan, atoms []int) ([]*plan.Node, error) {
	if len(atoms) == 0 {
		return nil, fmt.Errorf("exec: empty fragment")
	}
	chain := make([]*plan.Node, len(atoms))
	for i, ai := range atoms {
		if ai < 0 || ai >= len(p.ServiceNode) {
			return nil, fmt.Errorf("exec: fragment atom %d out of range (plan has %d)", ai, len(p.ServiceNode))
		}
		chain[i] = p.ServiceNode[ai]
	}
	for i, n := range chain {
		if len(n.In) != 1 {
			return nil, fmt.Errorf("exec: fragment node %s has %d input arcs, want 1", n.Label(), len(n.In))
		}
		if i == 0 {
			continue
		}
		prev := chain[i-1]
		if n.In[0] != prev {
			return nil, fmt.Errorf("exec: fragment nodes %s → %s are not adjacent in the plan", prev.Label(), n.Label())
		}
		if len(prev.Out) != 1 {
			return nil, fmt.Errorf("exec: fragment node %s feeds %d consumers, cannot be chain-interior", prev.Label(), len(prev.Out))
		}
	}
	return chain, nil
}
