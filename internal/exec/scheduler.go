package exec

// The dataflow scheduler: the one place a plan becomes goroutines and
// channels. Run, RunFragment and dist.Coordinator.ExecutePlan all
// execute through it, so the join strategies, top-k termination and
// the cancellation rules below hold wherever a node runs:
//
//   - every stage runs on its own goroutine and closes its outgoing
//     arcs when it returns, whatever the reason;
//   - the first stage error wins, cancels the run and is what the
//     caller sees (the request budget's violation takes its place when
//     one tripped); context.Canceled from a stage is the echo of a
//     cancellation, never its cause, and is not recorded;
//   - once the output stage has collected K rows it cancels the run
//     itself with the cause ErrSatisfied: the answer is complete, so
//     stage errors from then on are dropped — they are upstream stages
//     being torn down mid-call — and arc sends fail with ErrSatisfied
//     instead of context.Canceled, so a substituted stage's consumer
//     can tell its producer that it stops because it has enough;
//   - a run whose context ends with the cause ErrSatisfied from
//     outside (the coordinator's run, which holds its K rows, above a
//     worker's fragment) is a satisfied stop too: it keeps the Stats of
//     the nodes it ran and applies Feedback, as a run cut at its own K
//     does, and so does a run whose substituted stage or fragment sink
//     returns ErrSatisfied;
//   - a run whose context ends any other way without K reached was
//     cancelled from outside and fails with the context's error instead
//     of passing as a complete result.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"mdq/internal/plan"
	"mdq/internal/schema"
	"mdq/internal/service"
)

// ErrSatisfied is the cancellation cause of a run that stops because
// its consumer has every answer it asked for: the output stage of a
// run with K set cancels with it once K rows are out (§2.2), and a
// consumer of RunFragment's sink may return it to say the same. A run
// ended by it is complete, not aborted (see the rules above).
var ErrSatisfied = errors.New("exec: top-k answers complete")

// execution is the state of one scheduled dataflow.
type execution struct {
	runner *Runner
	plan   *plan.Plan
	ix     *VarIndex
	cache  Cache
	calls  map[string]*service.Counter
	start  time.Time

	// ctx is what every stage runs under; cancel ends the run early,
	// with its cause.
	ctx    context.Context
	cancel context.CancelCauseFunc
	wg     sync.WaitGroup

	mu       sync.Mutex // guards the fields below
	err      error      // first stage error
	reached  bool       // K rows collected; the run cancelled itself
	rows     [][]schema.Value
	tuples   []Tuple
	firstRow time.Duration
}

// newExecution prepares a dataflow over p whose locally executed
// service nodes are local. The caller must call cancel when done.
func (r *Runner) newExecution(ctx context.Context, p *plan.Plan, local []*plan.Node) *execution {
	ex := &execution{
		runner: r,
		plan:   p,
		ix:     NewVarIndex(p),
		cache:  r.runCache(),
		calls:  map[string]*service.Counter{},
		start:  time.Now(),
	}
	ex.ctx, ex.cancel = context.WithCancelCause(ctx)
	for _, n := range local {
		if ex.calls[n.Atom.Service] == nil {
			ex.calls[n.Atom.Service] = &service.Counter{}
		}
	}
	return ex
}

// spawn runs one stage on its own goroutine.
func (ex *execution) spawn(stage func(ctx context.Context) error) {
	ex.wg.Add(1)
	go func() {
		defer ex.wg.Done()
		ex.settle(stage(ex.ctx))
	}()
}

// settle takes a finished stage's outcome: a failed stage cancels the
// run with its error as the cause, and the error is kept if it is the
// first worth reporting — not an echo (context.Canceled, ErrSatisfied)
// and not raised after a satisfied stop.
func (ex *execution) settle(err error) {
	if err == nil {
		return
	}
	ex.mu.Lock()
	if err != context.Canceled && !errors.Is(err, ErrSatisfied) && ex.err == nil && !satisfied(ex.ctx) {
		ex.err = err
	}
	ex.mu.Unlock()
	ex.cancel(err)
}

// satisfied reports whether ctx ended with the cause ErrSatisfied: for
// a run's context, its own output reached K, a consumer returned it,
// or the run it is part of was satisfied.
func satisfied(ctx context.Context) bool {
	return errors.Is(context.Cause(ctx), ErrSatisfied)
}

// wait blocks until every stage has returned and settles the run: the
// error by the rules above, or the call accounting of the local
// service nodes, with the runner's feedback policy applied to them.
func (ex *execution) wait() (*Result, error) {
	ex.wg.Wait()
	err := ex.err
	if err == nil && !satisfied(ex.ctx) {
		err = ex.ctx.Err()
	}
	if err != nil {
		return nil, budgetAbort(ex.ctx, err)
	}
	res := &Result{
		Stats:   Stats{Calls: map[string]int64{}, Fetches: map[string]int64{}},
		Elapsed: time.Since(ex.start),
	}
	for name, c := range ex.calls {
		res.Stats.Calls[name] = c.Calls()
		res.Stats.Fetches[name] = c.Fetches()
	}
	ex.runner.feedback(ex)
	return res, nil
}

type edge struct {
	ch chan Tuple
}

type arcKey struct{ from, to int }

// RunChains executes the plan like Run, except that each of the given
// linear chains of service nodes (atom indexes in execution order, as
// for RunFragment) is replaced by one call of stage: it receives the
// chain's index, the arc flowing into the chain's head, and an emit
// that sends on the arcs leaving its tail (closed when stage returns)
// and fails with ErrSatisfied once the run has its K rows. A stage
// must consume in until it is closed unless it returns an error or
// ctx — the run's context, cancelled at K — has ended. This
// is the substitution point distributed execution plugs fragment
// dispatch into: joins, projection, K-termination and error handling
// stay the scheduler's. Result.Stats covers the service nodes the
// runner executed itself.
func (r *Runner) RunChains(ctx context.Context, p *plan.Plan, chains [][]int, stage func(ctx context.Context, chain int, in <-chan Tuple, emit func(Tuple) error) error) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	type chainRef struct {
		idx        int
		head, tail *plan.Node
	}
	sub := map[int]*chainRef{} // by node ID
	for i, atoms := range chains {
		nodes, err := fragmentChain(p, atoms)
		if err != nil {
			return nil, err
		}
		ref := &chainRef{idx: i, head: nodes[0], tail: nodes[len(nodes)-1]}
		for _, n := range nodes {
			if sub[n.ID] != nil {
				return nil, fmt.Errorf("exec: node %s is in two substituted chains", n.Label())
			}
			sub[n.ID] = ref
		}
	}
	var local []*plan.Node
	for _, n := range p.ServiceNode {
		if sub[n.ID] == nil {
			local = append(local, n)
		}
	}
	ex := r.newExecution(ctx, p, local)
	defer ex.cancel(nil)

	// One bounded channel per arc; the arcs inside a substituted chain
	// belong to its stage.
	arcs := map[arcKey]*edge{}
	for _, n := range p.Nodes {
		if ref := sub[n.ID]; ref != nil && n != ref.tail {
			continue
		}
		for _, m := range n.Out {
			arcs[arcKey{n.ID, m.ID}] = &edge{ch: make(chan Tuple, r.bufferSize())}
		}
	}
	ins := func(n *plan.Node) []*edge {
		out := make([]*edge, len(n.In))
		for i, m := range n.In {
			out[i] = arcs[arcKey{m.ID, n.ID}]
		}
		return out
	}
	outs := func(n *plan.Node) []*edge {
		out := make([]*edge, len(n.Out))
		for i, m := range n.Out {
			out[i] = arcs[arcKey{n.ID, m.ID}]
		}
		return out
	}

	for _, n := range p.Nodes {
		ref := sub[n.ID]
		switch {
		case n.Kind == plan.Input:
			ex.spawn(func(ctx context.Context) error { return ex.runInput(ctx, outs(n)) })
		case n.Kind == plan.Join:
			ex.spawn(func(ctx context.Context) error { return ex.runJoin(ctx, n, ins(n), outs(n)) })
		case n.Kind == plan.Output:
			ex.spawn(func(context.Context) error { return ex.runOutput(ins(n)[0]) })
		case ref == nil:
			ex.spawn(func(ctx context.Context) error { return ex.runService(ctx, n, ins(n)[0], outs(n)) })
		case n == ref.head:
			ex.spawn(func(ctx context.Context) error {
				out := outs(ref.tail)
				defer closeAll(out)
				return stage(ctx, ref.idx, ins(n)[0].ch, func(t Tuple) error { return emit(ctx, out, t) })
			})
		}
	}
	res, err := ex.wait()
	if err != nil {
		return nil, err
	}
	res.Head, res.Rows, res.Tuples, res.FirstRow = p.Query.Head, ex.rows, ex.tuples, ex.firstRow
	return res, nil
}

// emit sends a tuple to every outgoing arc, honoring cancellation: it
// fails with ErrSatisfied once the run is satisfied and with
// context.Canceled when it was cancelled any other way.
func emit(ctx context.Context, outs []*edge, t Tuple) error {
	for _, e := range outs {
		select {
		case e.ch <- t:
		case <-ctx.Done():
			if satisfied(ctx) {
				return ErrSatisfied
			}
			return context.Canceled
		}
	}
	return nil
}

func closeAll(outs []*edge) {
	for _, e := range outs {
		close(e.ch)
	}
}

func (ex *execution) runInput(ctx context.Context, outs []*edge) error {
	defer closeAll(outs)
	// The user injects one single input tuple (§3.4).
	return emit(ctx, outs, NewTuple(ex.ix))
}

// runOutput projects arriving tuples onto the query head until K rows
// are collected, then cancels the run (early termination, §2.2).
func (ex *execution) runOutput(in *edge) error {
	for t := range in.ch {
		head, err := t.Project(ex.ix, ex.plan.Query.Head)
		if err != nil {
			return err
		}
		ex.mu.Lock()
		if !ex.reached {
			ex.rows = append(ex.rows, head)
			ex.tuples = append(ex.tuples, t)
			if len(ex.rows) == 1 {
				ex.firstRow = time.Since(ex.start)
			}
			if ex.runner.K > 0 && len(ex.rows) >= ex.runner.K {
				ex.reached = true
				ex.cancel(ErrSatisfied)
			}
		}
		ex.mu.Unlock()
	}
	return nil
}
