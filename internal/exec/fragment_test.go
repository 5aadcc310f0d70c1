package exec_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mdq/internal/card"
	. "mdq/internal/exec"
	"mdq/internal/service"
	"mdq/internal/simweb"
)

// chainS is plan S's serial atom order (conf → weather → flight →
// hotel).
var chainS = []int{simweb.AtomConf, simweb.AtomWeather, simweb.AtomFlight, simweb.AtomHotel}

// TestRunFragmentWholeChain: executing the full serial plan as one
// fragment seeded with the empty tuple reproduces Run's tuple stream
// exactly.
func TestRunFragmentWholeChain(t *testing.T) {
	w, p := travelPlan(t, simweb.PlanSTopology())
	r := &Runner{Registry: w.Registry, Cache: card.OneCall}
	want, err := r.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}

	ix := NewVarIndex(p)
	got, err := r.RunFragment(context.Background(), p, chainS, []Tuple{NewTuple(ix)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Tuples, got.Tuples) {
		t.Fatalf("fragment tuples diverge from Run:\n fragment: %v\n run:      %v", got.Tuples, want.Tuples)
	}
	if len(got.Stats.Calls) == 0 {
		t.Fatal("fragment recorded no calls")
	}
}

// TestRunFragmentComposition: cutting the chain in two and feeding
// the first fragment's output as the second's seeds composes to the
// same final stream — the property distributed execution relies on.
func TestRunFragmentComposition(t *testing.T) {
	w, p := travelPlan(t, simweb.PlanSTopology())
	r := &Runner{Registry: w.Registry, Cache: card.OneCall}
	want, err := r.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}

	ix := NewVarIndex(p)
	first, err := r.RunFragment(context.Background(), p, chainS[:2], []Tuple{NewTuple(ix)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Tuples) == 0 {
		t.Fatal("head fragment produced nothing")
	}
	second, err := r.RunFragment(context.Background(), p, chainS[2:], first.Tuples, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Tuples, second.Tuples) {
		t.Fatalf("composed fragments diverge from Run:\n composed: %v\n run:      %v", second.Tuples, want.Tuples)
	}
}

// TestRunFragmentStreaming: the sink receives the same tuples in the
// same order as collection mode, and a sink error aborts the run.
func TestRunFragmentStreaming(t *testing.T) {
	w, p := travelPlan(t, simweb.PlanSTopology())
	r := &Runner{Registry: w.Registry, Cache: card.OneCall}
	ix := NewVarIndex(p)

	collected, err := r.RunFragment(context.Background(), p, chainS, []Tuple{NewTuple(ix)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Tuple
	res, err := r.RunFragment(context.Background(), p, chainS, []Tuple{NewTuple(ix)}, func(t Tuple) error {
		streamed = append(streamed, t)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples != nil {
		t.Fatal("streaming run also collected tuples")
	}
	if !reflect.DeepEqual(collected.Tuples, streamed) {
		t.Fatalf("streamed tuples diverge from collected:\n streamed:  %v\n collected: %v", streamed, collected.Tuples)
	}

	boom := errors.New("sink full")
	if _, err := r.RunFragment(context.Background(), p, chainS, []Tuple{NewTuple(ix)}, func(Tuple) error {
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("sink error not surfaced: %v", err)
	}
}

// TestRunFragmentSatisfiedStop: a fragment whose consumer has every
// answer it needs — its context ended with the cause ErrSatisfied, or
// its sink answering ErrSatisfied — stops without failing, returns the
// call accounting of what it ran and applies Feedback, as a Run cut at
// K does; the same stop under a plain cancel still fails with
// context.Canceled. The sink is the gate: the stop lands on the first
// tuple by script, while the one-tuple arcs hold the rest of the
// stream back.
func TestRunFragmentSatisfiedStop(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(cancel context.CancelCauseFunc) error // the sink's answer to its first tuple
		want error
	}{
		{"context cause", func(cancel context.CancelCauseFunc) error { cancel(ErrSatisfied); return nil }, nil},
		{"sink answer", func(context.CancelCauseFunc) error { return ErrSatisfied }, nil},
		{"plain cancel", func(cancel context.CancelCauseFunc) error { cancel(nil); return nil }, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, p := travelPlan(t, simweb.PlanSTopology())
			w.Registry.ObserveAll()
			r := &Runner{Registry: w.Registry, Cache: card.OneCall, BufferSize: 1,
				Feedback: &service.FeedbackPolicy{}}
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)
			ix := NewVarIndex(p)
			seen := 0
			res, err := r.RunFragment(ctx, p, chainS, []Tuple{NewTuple(ix)}, func(Tuple) error {
				seen++
				if seen == 1 {
					return tc.stop(cancel)
				}
				return nil
			})
			if tc.want != nil {
				if !errors.Is(err, tc.want) || res != nil {
					t.Fatalf("RunFragment = %v, %v; want nil, %v", res, err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatalf("satisfied stop failed: %v", err)
			}
			if res.Stats.Calls["conf"] == 0 || res.Stats.Calls["hotel"] == 0 {
				t.Fatalf("satisfied stop kept no call accounting: %v", res.Stats.Calls)
			}
			if w.Registry.Epoch("conf") == 0 {
				t.Fatal("feedback did not run after the satisfied stop")
			}
		})
	}
}

// TestRunFragmentShape: non-chains are rejected up front.
func TestRunFragmentShape(t *testing.T) {
	w, p := travelPlan(t, simweb.PlanSTopology())
	r := &Runner{Registry: w.Registry, Cache: card.OneCall}
	ix := NewVarIndex(p)
	seeds := []Tuple{NewTuple(ix)}

	if _, err := r.RunFragment(context.Background(), p, nil, seeds, nil); err == nil {
		t.Fatal("empty fragment accepted")
	}
	// conf → flight skips weather: not adjacent in the plan DAG.
	if _, err := r.RunFragment(context.Background(), p, []int{simweb.AtomConf, simweb.AtomFlight}, seeds, nil); err == nil {
		t.Fatal("non-adjacent fragment accepted")
	}
	if _, err := r.RunFragment(context.Background(), p, []int{99}, seeds, nil); err == nil {
		t.Fatal("out-of-range atom accepted")
	}
	// Seeds must match the plan layout.
	if _, err := r.RunFragment(context.Background(), p, chainS, []Tuple{TupleOf(nil)}, nil); err == nil {
		t.Fatal("mis-sized seed accepted")
	}
}
