package plan

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestTopologyJSONRoundTrip: the wire encoding used by distributed
// optimization reproduces the exact partial order.
func TestTopologyJSONRoundTrip(t *testing.T) {
	cases := []*Topology{
		NewTopology(0),
		NewTopology(1),
		NewTopology(3),
		Chain([]int{2, 0, 1}),
		Layers([][]int{{0, 2}, {1, 3}}),
	}
	for _, topo := range cases {
		data, err := json.Marshal(topo)
		if err != nil {
			t.Fatalf("marshal %s: %v", topo, err)
		}
		var back Topology
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s (%s): %v", topo, data, err)
		}
		if !topo.Equal(&back) {
			t.Fatalf("round trip changed the order: %s -> %s", topo, &back)
		}
	}
}

// TestTopologyJSONRejectsInvalid: wire input is untrusted — cyclic or
// malformed relations must not decode.
func TestTopologyJSONRejectsInvalid(t *testing.T) {
	for _, bad := range []string{
		`{"n":2,"bits":"011"}`,       // wrong length
		`{"n":2,"bits":"0ab0"}`,      // bad characters
		`{"n":2,"bits":"0110"}`,      // 0<1 and 1<0: a cycle
		`{"n":1,"bits":"1"}`,         // reflexive
		`{"n":-1,"bits":""}`,         // negative size
		`{"n":4294967296,"bits":""}`, // n*n overflows to 0
		// Well-formed all-parallel orders beyond plan.MaxAtoms: refused
		// before the cubic partial-order check would run.
		fmt.Sprintf(`{"n":64,"bits":"%s"}`, strings.Repeat("0", 64*64)),
		fmt.Sprintf(`{"n":1000,"bits":"%s"}`, strings.Repeat("0", 1000*1000)),
	} {
		var topo Topology
		if err := json.Unmarshal([]byte(bad), &topo); err == nil {
			t.Errorf("decoded invalid topology %s", bad)
		}
	}
}
