// Package plan models query plans as directed acyclic graphs (§3.3
// of Braga et al., VLDB 2008): nodes are service invocations or
// parallel joins, arcs are precedences and parameter passing. A plan
// is built from three ingredients fixed by the optimizer's three
// phases: an access-pattern assignment, a topology (a partial order
// over the query atoms), and fetch factors for chunked services.
package plan

import (
	"encoding/json"
	"fmt"
	"strings"
)

// MaxAtoms is the largest atom count a topology may order: the
// phase-2 walk keeps the placed atoms in one 64-bit mask, so no plan
// this system builds is larger, and decoding rejects larger wire
// topologies before allocating their n×n relation.
const MaxAtoms = 63

// Topology is a strict partial order over the atoms of a query: the
// relative invocation order of services. Incomparable atoms run in
// parallel. The paper's Example 5.1 counts 19 alternative plans for
// three unconstrained atoms: exactly the number of partial orders on
// three labeled elements.
type Topology struct {
	n    int
	less []bool // row-major n×n; less[i*n+j] ⇒ atom i precedes atom j
}

// NewTopology creates the empty (all-parallel) order over n atoms.
func NewTopology(n int) *Topology {
	return &Topology{n: n, less: make([]bool, n*n)}
}

// Chain builds the total order ord[0] < ord[1] < … (a serial plan).
func Chain(ord []int) *Topology {
	t := NewTopology(len(ord))
	for i := 0; i < len(ord); i++ {
		for j := i + 1; j < len(ord); j++ {
			t.less[ord[i]*t.n+ord[j]] = true
		}
	}
	return t
}

// Layers builds the layered order l1 < l2 < … where atoms inside a
// layer are mutually parallel and every atom of layer k precedes
// every atom of layer k+1.
func Layers(layers [][]int) *Topology {
	n := 0
	for _, l := range layers {
		n += len(l)
	}
	t := NewTopology(n)
	for a := 0; a < len(layers); a++ {
		for b := a + 1; b < len(layers); b++ {
			for _, i := range layers[a] {
				for _, j := range layers[b] {
					t.less[i*n+j] = true
				}
			}
		}
	}
	return t
}

// Size returns the number of atoms.
func (t *Topology) Size() int { return t.n }

// Less reports whether atom i strictly precedes atom j.
func (t *Topology) Less(i, j int) bool { return t.less[i*t.n+j] }

// SetLess records i < j. The caller must re-establish transitive
// closure with Close before using the topology.
func (t *Topology) SetLess(i, j int) { t.less[i*t.n+j] = true }

// Clone deep-copies the topology.
func (t *Topology) Clone() *Topology {
	c := &Topology{n: t.n, less: make([]bool, len(t.less))}
	copy(c.less, t.less)
	return c
}

// Close computes the transitive closure in place and reports whether
// the relation is acyclic (a valid strict partial order).
func (t *Topology) Close() bool {
	n := t.n
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !t.less[i*n+k] {
				continue
			}
			for j := 0; j < n; j++ {
				if t.less[k*n+j] {
					t.less[i*n+j] = true
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if t.less[i*n+i] {
			return false
		}
	}
	return true
}

// IsPartialOrder reports whether the relation is irreflexive and
// transitively closed.
func (t *Topology) IsPartialOrder() bool {
	n := t.n
	for i := 0; i < n; i++ {
		if t.less[i*n+i] {
			return false
		}
		for j := 0; j < n; j++ {
			if !t.less[i*n+j] {
				continue
			}
			for k := 0; k < n; k++ {
				if t.less[j*n+k] && !t.less[i*n+k] {
					return false
				}
			}
		}
	}
	return true
}

// CoverPreds returns the immediate (transitively reduced)
// predecessors of atom j: atoms i with i < j and no k such that
// i < k < j. Cover predecessors are pairwise incomparable.
func (t *Topology) CoverPreds(j int) []int {
	var out []int
	n := t.n
	for i := 0; i < n; i++ {
		if !t.less[i*n+j] {
			continue
		}
		covered := false
		for k := 0; k < n; k++ {
			if t.less[i*n+k] && t.less[k*n+j] {
				covered = true
				break
			}
		}
		if !covered {
			out = append(out, i)
		}
	}
	return out
}

// Minimal returns the atoms with no predecessor.
func (t *Topology) Minimal() []int {
	var out []int
	for j := 0; j < t.n; j++ {
		has := false
		for i := 0; i < t.n; i++ {
			if t.Less(i, j) {
				has = true
				break
			}
		}
		if !has {
			out = append(out, j)
		}
	}
	return out
}

// Maximal returns the atoms with no successor.
func (t *Topology) Maximal() []int {
	var out []int
	for i := 0; i < t.n; i++ {
		has := false
		for j := 0; j < t.n; j++ {
			if t.Less(i, j) {
				has = true
				break
			}
		}
		if !has {
			out = append(out, i)
		}
	}
	return out
}

// TopoOrder returns atom indexes in a deterministic topological
// order (smallest index first among ready atoms).
func (t *Topology) TopoOrder() []int {
	placed := make([]bool, t.n)
	var order []int
	for len(order) < t.n {
		for j := 0; j < t.n; j++ {
			if placed[j] {
				continue
			}
			ready := true
			for i := 0; i < t.n; i++ {
				if t.Less(i, j) && !placed[i] {
					ready = false
					break
				}
			}
			if ready {
				placed[j] = true
				order = append(order, j)
				break
			}
		}
	}
	return order
}

// Key returns a canonical string identifying the partial order, used
// to deduplicate topologies during enumeration.
func (t *Topology) Key() string {
	var b strings.Builder
	b.Grow(t.n * t.n)
	for _, v := range t.less {
		if v {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Equal reports whether two topologies encode the same order.
func (t *Topology) Equal(u *Topology) bool {
	if t.n != u.n {
		return false
	}
	for i := range t.less {
		if t.less[i] != u.less[i] {
			return false
		}
	}
	return true
}

// wireTopology is the JSON encoding of a Topology: the atom count
// and the row-major less-than matrix as a '0'/'1' string (the same
// encoding Key uses). It is the wire format distributed optimization
// ships plan skeletons in.
type wireTopology struct {
	N    int    `json:"n"`
	Bits string `json:"bits"`
}

// MarshalJSON implements json.Marshaler.
func (t *Topology) MarshalJSON() ([]byte, error) {
	return json.Marshal(wireTopology{N: t.n, Bits: t.Key()})
}

// UnmarshalJSON implements json.Unmarshaler, validating that the
// decoded relation is a strict partial order (irreflexive and
// transitively closed) — wire input is untrusted.
func (t *Topology) UnmarshalJSON(data []byte) error {
	var w wireTopology
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.N < 0 || w.N > MaxAtoms {
		return fmt.Errorf("plan: topology wire format orders %d atoms; at most %d are supported", w.N, MaxAtoms)
	}
	if len(w.Bits) != w.N*w.N {
		return fmt.Errorf("plan: topology wire format has %d bits for n=%d", len(w.Bits), w.N)
	}
	less := make([]bool, len(w.Bits))
	for i := 0; i < len(w.Bits); i++ {
		switch w.Bits[i] {
		case '1':
			less[i] = true
		case '0':
		default:
			return fmt.Errorf("plan: topology wire format has invalid bit %q", w.Bits[i])
		}
	}
	decoded := Topology{n: w.N, less: less}
	if !decoded.IsPartialOrder() {
		return fmt.Errorf("plan: topology wire format is not a strict partial order: %s", w.Bits)
	}
	*t = decoded
	return nil
}

// String renders the order as its cover edges, e.g.
// "0<1 1<2 1<3" (atom indexes).
func (t *Topology) String() string {
	var parts []string
	for j := 0; j < t.n; j++ {
		for _, i := range t.CoverPreds(j) {
			parts = append(parts, fmt.Sprintf("%d<%d", i, j))
		}
	}
	if len(parts) == 0 {
		return "(all parallel)"
	}
	return strings.Join(parts, " ")
}
