package exec

import (
	"context"
	"fmt"
	"time"

	"mdq/internal/cq"
	"mdq/internal/plan"
	"mdq/internal/schema"
	"mdq/internal/serve"
	"mdq/internal/service"
	"mdq/internal/trace"
)

// NodeInvoker encapsulates the per-node invocation semantics shared
// by the concurrent Runner and the discrete-event simulator: input
// assembly from the flowing tuple, logical cache lookup, chunked
// fetching with early stop on a short page, result binding and local
// predicate evaluation.
type NodeInvoker struct {
	Node    *plan.Node
	Svc     service.Service
	PatIdx  int
	Ix      *VarIndex
	Cache   Cache
	Counter *service.Counter
}

// NewNodeInvoker resolves the service and pattern for a plan node.
func NewNodeInvoker(reg *service.Registry, n *plan.Node, ix *VarIndex, cache Cache, counter *service.Counter) (*NodeInvoker, error) {
	svc, ok := reg.Lookup(n.Atom.Service)
	if !ok {
		return nil, fmt.Errorf("exec: service %s not registered", n.Atom.Service)
	}
	patIdx, err := service.PatternIndex(svc.Signature(), n.Pattern)
	if err != nil {
		return nil, err
	}
	return &NodeInvoker{Node: n, Svc: svc, PatIdx: patIdx, Ix: ix, Cache: cache, Counter: counter}, nil
}

// Inputs assembles the request inputs for a tuple under the node's
// access pattern.
func (iv *NodeInvoker) Inputs(t Tuple) ([]schema.Value, error) {
	n := iv.Node
	inPos := n.Pattern.Inputs()
	inputs := make([]schema.Value, len(inPos))
	for k, pos := range inPos {
		term := n.Atom.Terms[pos]
		if term.IsVar() {
			slot, ok := iv.Ix.Pos(term.Var)
			if !ok || t.Get(slot).IsNull() {
				return nil, fmt.Errorf("exec: %s input %s unbound at runtime", n.Atom.Service, term.Var)
			}
			inputs[k] = t.Get(slot)
		} else {
			inputs[k] = term.Const
		}
	}
	return inputs, nil
}

// Call performs the logical invocation for one input tuple: cache
// lookup and, on a miss, up to F fetches (stopping early when a page
// reports no more results). A cached entry with fewer pages than the
// node's fetch factor is resumed from where it stopped — this is how
// a continued execution (§2.2) extends earlier answers instead of
// re-fetching them. It returns the rows, whether the logical cache
// fully answered, and the total simulated service time of the new
// fetches (zero on a hit). Counters count only calls that reach the
// service.
func (iv *NodeInvoker) Call(ctx context.Context, t Tuple) (rows [][]schema.Value, hit bool, elapsed time.Duration, err error) {
	l, err := iv.lookup(t)
	if err != nil {
		return nil, false, 0, err
	}
	if l.hit {
		return l.entry.Rows, true, 0, nil
	}
	entry, elapsed, err := iv.fetch(ctx, l)
	if err != nil {
		return nil, false, 0, err
	}
	iv.Cache.Put(iv.Node.Atom.Service, l.key, entry)
	return entry.Rows, false, elapsed, nil
}

// lookup is the decision half of Call: the request for a tuple and
// what the logical cache holds for it. hit means the entry answers
// the call; otherwise entry is the prefix to resume (empty on a miss).
type lookup struct {
	inputs  []schema.Value
	key     string
	fetches int
	entry   Entry
	hit     bool
}

func (iv *NodeInvoker) lookup(t Tuple) (lookup, error) {
	inputs, err := iv.Inputs(t)
	if err != nil {
		return lookup{}, err
	}
	l := lookup{inputs: inputs, key: service.Request{Inputs: inputs}.Key(), fetches: iv.Node.Fetches}
	if l.fetches < 1 {
		l.fetches = 1
	}
	entry, ok := iv.Cache.Get(iv.Node.Atom.Service, l.key)
	if ok {
		l.entry = entry
		l.hit = entry.Exhausted || entry.Pages >= l.fetches
	}
	return l, nil
}

// fetch is the invocation half of Call: it issues the fetches l's
// entry lacks and returns the completed entry, which the caller puts
// into the cache.
func (iv *NodeInvoker) fetch(ctx context.Context, l lookup) (entry Entry, elapsed time.Duration, err error) {
	entry = l.entry
	// The call is about to reach the service: charge it against the
	// request's budget (logical cache hits above cost nothing). A call
	// that would exceed the cap — or whose deadline has passed — is
	// never issued.
	if b := serve.FromContext(ctx); b != nil {
		if err := b.Charge(1); err != nil {
			return Entry{}, 0, err
		}
	}
	// Under a traced context the node span counts the real invocation
	// and a child span times it — tracing observes the charge path, it
	// never alters it (the differential suite pins call-count parity).
	nodeSp := trace.From(ctx)
	callSp := nodeSp.Child("call:" + iv.Node.Atom.Service)
	rows := entry.Rows
	pages := 0
	for page := entry.Pages; page < l.fetches; page++ {
		resp, ferr := iv.Svc.Invoke(ctx, iv.PatIdx, service.Request{Inputs: l.inputs, Page: page})
		if ferr != nil {
			if ctx.Err() != nil {
				return Entry{}, 0, context.Canceled
			}
			callSp.Set("error", ferr.Error())
			callSp.End()
			return Entry{}, 0, ferr
		}
		iv.Counter.AddFetch()
		pages++
		elapsed += resp.Elapsed
		rows = append(rows, resp.Rows...)
		entry.Pages = page + 1
		if !resp.HasMore {
			entry.Exhausted = true
			break
		}
	}
	entry.Rows = rows
	iv.Counter.AddCall()
	nodeSp.AddObs(0, 0, 1, int64(pages))
	if callSp != nil {
		callSp.Set("fetches", fmt.Sprint(pages))
		callSp.Set("rows", fmt.Sprint(len(rows)))
		callSp.End()
	}
	return entry, elapsed, nil
}

// Expand binds the result rows into the flowing tuple and applies
// the node's local predicates, preserving row (rank) order.
func (iv *NodeInvoker) Expand(t Tuple, rows [][]schema.Value) ([]Tuple, error) {
	var out []Tuple
	for _, row := range rows {
		nt, ok := iv.bindRow(t, row)
		if !ok {
			continue
		}
		pass, err := EvalPreds(iv.Node.Preds, nt, iv.Ix)
		if err != nil {
			return nil, err
		}
		if pass {
			out = append(out, nt)
		}
	}
	return out, nil
}

// bindRow merges a service result row into the flowing tuple:
// output constants act as selections, repeated variables as equality
// constraints.
func (iv *NodeInvoker) bindRow(t Tuple, row []schema.Value) (Tuple, bool) {
	n := iv.Node
	if len(row) != len(n.Atom.Terms) {
		return Tuple{}, false
	}
	nt := t.Clone()
	for pos, term := range n.Atom.Terms {
		if !term.IsVar() {
			if !row[pos].Equal(term.Const) {
				return Tuple{}, false
			}
			continue
		}
		slot, ok := iv.Ix.Pos(term.Var)
		if !ok {
			continue
		}
		cur := nt.Get(slot)
		switch {
		case cur.IsNull():
			nt.vals[slot] = row[pos]
		case !cur.Equal(row[pos]):
			return Tuple{}, false
		}
	}
	return nt, true
}

// EvalPreds evaluates a conjunction of predicates on a tuple.
func EvalPreds(preds []*cq.Predicate, t Tuple, ix *VarIndex) (bool, error) {
	for _, p := range preds {
		ok, err := p.Eval(t.Binding(ix))
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// JoinPairs traverses the Cartesian plane of two buffered branches
// in the order of the join strategy (Figure 5 of the paper; see [4])
// and returns the merged tuples that satisfy the shared-variable
// equality and the join predicates:
//
//   - nested loop: the left (selective) side is fully available;
//     output order is right-major (for each right tuple in rank
//     order, all left matches);
//   - merge-scan: anti-diagonals i+j = 0, 1, 2, …, so the output is
//     consistent with both input orders.
func JoinPairs(method plan.JoinMethod, left, right []Tuple, preds []*cq.Predicate, ix *VarIndex) ([]Tuple, error) {
	var out []Tuple
	try := func(l, r Tuple) error {
		m, ok := l.Merge(r)
		if !ok {
			return nil
		}
		pass, err := EvalPreds(preds, m, ix)
		if err != nil {
			return err
		}
		if pass {
			out = append(out, m)
		}
		return nil
	}
	switch method {
	case plan.NestedLoop:
		for _, r := range right {
			for _, l := range left {
				if err := try(l, r); err != nil {
					return nil, err
				}
			}
		}
	default: // MergeScan
		for d := 0; d < len(left)+len(right)-1; d++ {
			i0 := d - len(right) + 1
			if i0 < 0 {
				i0 = 0
			}
			for i := i0; i <= d && i < len(left); i++ {
				if err := try(left[i], right[d-i]); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}
