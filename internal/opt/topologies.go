// Package opt implements the paper's main contribution (§2.4, §4 of
// Braga et al., VLDB 2008): the three-phase branch-and-bound
// optimizer that maps a conjunctive query over web services to a
// fully instantiated query plan of minimal cost.
//
// Phase 1 selects an access-pattern assignment ("bound is better"
// first), phase 2 selects the plan topology — a partial order over
// the query atoms ("selective and parallel are better" heuristics
// seed the upper bound), and phase 3 assigns the fetch factors of
// chunked services ("greedy" / "square is better"). All considered
// cost metrics are monotone with respect to this construction, so
// the cost of a partially constructed plan lower-bounds every
// completion and enables safe pruning.
package opt

import (
	"math/bits"
	"sort"

	"mdq/internal/abind"
	"mdq/internal/cq"
	"mdq/internal/plan"
)

// topoState is a node of the phase-2 construction tree: a set of
// placed atoms with a strict partial order over them. States are
// deduplicated, so every partial order is expanded exactly once even
// though many construction sequences reach it.
type topoState struct {
	placed uint64 // bitmask over atom indexes
	topo   *plan.Topology
}

func (s *topoState) key() string {
	// The placed mask is implied by the matrix only for non-trivial
	// orders, so include it explicitly.
	b := make([]byte, 0, 16+s.topo.Size()*s.topo.Size())
	m := s.placed
	for i := 0; i < 8; i++ {
		b = append(b, byte(m>>(8*i)))
	}
	return string(b) + s.topo.Key()
}

// outputsOf caches the output variable sets per atom for an
// assignment.
func outputsOf(q *cq.Query, asn abind.Assignment) []cq.VarSet {
	outs := make([]cq.VarSet, len(q.Atoms))
	for i, a := range q.Atoms {
		outs[i] = abind.OutputVars(a, asn[i])
	}
	return outs
}

// extensions enumerates the ways of placing one more atom: an
// unplaced atom j together with an order ideal D of the placed atoms
// (its set of strict predecessors) such that j is callable after D.
// Each extension yields a strictly larger partial order; transitivity
// is preserved because D is downward closed.
func extensions(q *cq.Query, asn abind.Assignment, outs []cq.VarSet, s *topoState, visit func(j int, ideal uint64)) {
	n := len(q.Atoms)
	var placedIdx []int
	for i := 0; i < n; i++ {
		if s.placed&(1<<i) != 0 {
			placedIdx = append(placedIdx, i)
		}
	}
	for j := 0; j < n; j++ {
		if s.placed&(1<<j) != 0 {
			continue
		}
		// Enumerate subsets of placed atoms as candidate predecessor
		// sets; keep order ideals under which j is callable.
		k := len(placedIdx)
		for sub := 0; sub < 1<<k; sub++ {
			var mask uint64
			for b := 0; b < k; b++ {
				if sub&(1<<b) != 0 {
					mask |= 1 << placedIdx[b]
				}
			}
			if !isIdeal(s.topo, placedIdx, mask) {
				continue
			}
			bound := cq.VarSet{}
			for _, i := range placedIdx {
				if mask&(1<<i) != 0 {
					bound.AddAll(outs[i])
				}
			}
			if !abind.InputsBound(q.Atoms[j], asn[j], bound) {
				continue
			}
			visit(j, mask)
		}
	}
}

// isIdeal reports whether mask is downward closed in the placed
// order: x ∈ mask and y < x imply y ∈ mask.
func isIdeal(t *plan.Topology, placedIdx []int, mask uint64) bool {
	for _, x := range placedIdx {
		if mask&(1<<x) == 0 {
			continue
		}
		for _, y := range placedIdx {
			if t.Less(y, x) && mask&(1<<y) == 0 {
				return false
			}
		}
	}
	return true
}

// apply returns the successor state after placing atom j with the
// given predecessor ideal.
func apply(s *topoState, j int, ideal uint64) *topoState {
	t := s.topo.Clone()
	n := t.Size()
	for i := 0; i < n; i++ {
		if ideal&(1<<i) != 0 {
			t.SetLess(i, j)
		}
	}
	return &topoState{placed: s.placed | 1<<j, topo: t}
}

// EnumerateTopologies returns every valid plan topology for the
// query under the assignment: all strict partial orders over the
// atoms in which each atom's input fields are bound by constants or
// by outputs of its predecessors. For three atoms with no binding
// constraints this yields the paper's 19 alternatives (Example 5.1).
func EnumerateTopologies(q *cq.Query, asn abind.Assignment) []*plan.Topology {
	var result []*plan.Topology
	WalkTopologies(q, asn, func(s *topoState) bool { return true }, func(t *plan.Topology) {
		result = append(result, t)
	})
	sort.Slice(result, func(i, j int) bool { return result[i].Key() < result[j].Key() })
	return result
}

// CountTopologies counts the valid topologies without materializing
// them.
func CountTopologies(q *cq.Query, asn abind.Assignment) int {
	n := 0
	WalkTopologies(q, asn, func(s *topoState) bool { return true }, func(*plan.Topology) { n++ })
	return n
}

// WalkTopologies runs the phase-2 construction: a depth-first walk
// over partial orders, expanding each distinct partial state once.
// keep is consulted on every intermediate state (return false to
// prune the whole subtree — this is where branch and bound hooks
// in); leaf is invoked for every complete topology.
func WalkTopologies(q *cq.Query, asn abind.Assignment, keep func(*topoState) bool, leaf func(*plan.Topology)) {
	n := len(q.Atoms)
	if n > plan.MaxAtoms {
		panic("opt: too many atoms")
	}
	outs := outputsOf(q, asn)
	full := uint64(1)<<n - 1
	seen := map[string]bool{}
	var dfs func(s *topoState)
	dfs = func(s *topoState) {
		k := s.key()
		if seen[k] {
			return
		}
		seen[k] = true
		if !keep(s) {
			return
		}
		if s.placed == full {
			leaf(s.topo.Clone())
			return
		}
		extensions(q, asn, outs, s, func(j int, ideal uint64) {
			dfs(apply(s, j, ideal))
		})
	}
	dfs(&topoState{placed: 0, topo: plan.NewTopology(n)})
}

// placedCount returns the number of atoms placed in the state.
func (s *topoState) placedCount() int { return bits.OnesCount64(s.placed) }

// placedList returns the placed atom indexes in increasing order.
func (s *topoState) placedList() []int {
	var out []int
	for i := 0; i < 64; i++ {
		if s.placed&(1<<i) != 0 {
			out = append(out, i)
		}
	}
	return out
}
