package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"mdq/bench/workload"
)

// The committed BENCHMARK.json is generated from the catalogue
// (go run ./bench/cmd/mdqperf -manifest > BENCHMARK.json); a metric
// added to one and not the other would be measured but never checked.
func TestManifestIsCommitted(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from mdqperf -manifest; regenerate it")
	}
}

// The limits the driver refuses a BENCHMARK.json for.
func TestManifestMeetsTheContract(t *testing.T) {
	raw, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(m.PerLayer))
	}
	for _, d := range append(m.EndToEnd, m.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is not a valid unit", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range m.PerLayer {
		check(d.Name)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
	// 4 + 22 per workload runs, each a build check, three set-ups and
	// the window, must fit 3420 s with two builds: budget 33 s a run.
	if runs := 4 + 22*len(m.Workloads); runs*33+2*120 > 3420 {
		t.Errorf("%d runs at 33 s do not fit the driver's 3420 s", runs)
	}
	if len(raw) > 64<<10 {
		t.Errorf("manifest is %d bytes, limit 64 KiB", len(raw))
	}
}

func TestOracleAcceptsOnlyAnswers(t *testing.T) {
	w, err := workload.Generate("zipf_exec", 1, runSeconds)
	if err != nil {
		t.Fatal(err)
	}
	w.Requests = w.Requests[:64]
	o, err := buildOracle(w)
	if err != nil {
		t.Fatal(err)
	}
	req := w.Requests[0]
	var rows [][]string
	for key := range o.answers[req.AnswerKey()] {
		if len(rows) < req.K {
			rows = append(rows, regexp.MustCompile("\x1f").Split(key, -1))
		}
	}
	if len(rows) == 0 {
		t.Fatalf("empty answer set for %s=%s", req.Param, req.Value)
	}
	if why := o.check(req, rows); why != "" {
		t.Errorf("k rows of the answer set rejected: %s", why)
	}
	if len(rows) == req.K {
		if why := o.check(req, rows[:len(rows)-1]); why == "" {
			t.Error("fewer than k rows accepted although the answer set holds more")
		}
	}
	twice := append([][]string{rows[0]}, rows[:len(rows)-1]...)
	if why := o.check(req, twice); why == "" {
		t.Error("a row returned twice accepted")
	}
	forged := append([][]string{{"item-xx", "9"}}, rows[1:]...)
	if why := o.check(req, forged); why == "" {
		t.Error("a row outside the answer set accepted")
	}
}

// The replica is built from the layers' public functions: this keeps
// it compiling and answering correctly as those layers change. That it
// still mirrors mdqserve is checked against the real binary by every
// traced run, not here.
func TestReplicaAnswersCorrectly(t *testing.T) {
	for _, kind := range []transportKind{localTransport, httpTransport} {
		spec, _ := workload.Lookup("zipf_exec")
		if kind == httpTransport {
			spec.Workers = 2
		}
		w, err := workload.Generate("zipf_exec", 2, runSeconds)
		if err != nil {
			t.Fatal(err)
		}
		w.Requests = w.Requests[:40]
		o, err := buildOracle(w)
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder()
		r, err := newReplica(spec, kind, rec)
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		for i, req := range w.Requests {
			a, err := r.handle(context.Background(), i, req.Body())
			if err != nil {
				t.Fatalf("workers=%d request %d: %v", spec.Workers, i, err)
			}
			if why := o.check(req, a.rows); why != "" {
				t.Errorf("workers=%d request %d: %s", spec.Workers, i, why)
			}
			if a.class != "miss" {
				hits++
			}
		}
		r.close()
		if hits == 0 {
			t.Errorf("workers=%d: the template cache never served", spec.Workers)
		}
		lt := aggregate(rec.snapshot(), func(int) bool { return true })
		names := []string{"request", "http.decode", "cq.parse_template", "serve.coalesce", "http.encode", "service.invoke"}
		if kind == httpTransport {
			// Worker-side spans lose their request across HTTP; the
			// coordinator's side of the call keeps it.
			names[len(names)-1] = "dist.transport.execute_fragment"
		}
		for _, name := range names {
			if lt.count[name] == 0 {
				t.Errorf("workers=%d: no %s span recorded", spec.Workers, name)
			}
		}
	}
}
