//go:build e2e

package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"mdq/internal/trace"
)

// TestTracedFleetQuery is the tracing e2e gate: a traced query against
// a real coordinator + two real mdqworker processes over loopback HTTP
// must come back with a single span tree in which the workers' spans —
// shipped across the wire piggybacked on result frames — nest under
// the coordinator's dispatch spans, and every plan-node span carries
// the optimizer estimate next to the observed counters. The first
// query misses the fleet's template plane (probe + one search dispatch
// per shard); the second binding of the same template is one probe
// dispatch, tagged probe=hit. On failure the raw trace dump lands in
// MDQ_LOAD_ARTIFACTS for CI upload.
func TestTracedFleetQuery(t *testing.T) {
	dir := t.TempDir()
	serveBin, workerBin, _ := buildBinaries(t, dir)
	ports := freePorts(t, 3)
	serveAddr := fmt.Sprintf("127.0.0.1:%d", ports[0])
	w1 := fmt.Sprintf("127.0.0.1:%d", ports[1])
	w2 := fmt.Sprintf("127.0.0.1:%d", ports[2])

	for _, addr := range []string{w1, w2} {
		startProc(t, workerBin, "-addr", addr, "-world", "travel", "-parallel", "1")
		waitReady(t, "http://"+addr+"/dist/info")
	}
	startProc(t, serveBin, "-addr", serveAddr, "-world", "travel", "-parallel", "1",
		"-workers", "http://"+w1+",http://"+w2)
	waitReady(t, "http://"+serveAddr+"/stats")

	var lastID string
	for _, want := range []struct {
		probe      string
		dispatches int
	}{{"miss", 3}, {"hit", 1}} {
		reqBody, _ := json.Marshal(map[string]any{
			"template": e2eTemplate,
			"bindings": map[string]any{"cat": "luxury"},
			"k":        answersK,
			"trace":    true,
		})
		resp, err := http.Post("http://"+serveAddr+"/query", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		// Keep the raw response around: the CI job uploads the artifacts
		// dir only when the test fails, so this is the failure dump.
		dump := filepath.Join(artifactsDir(t), "traced_query_response_"+want.probe+".json")
		if err := os.WriteFile(dump, raw, 0o644); err != nil {
			t.Logf("saving trace dump: %v", err)
		}

		var qr struct {
			Error   string            `json:"error"`
			Rows    [][]string        `json:"rows"`
			TraceID string            `json:"trace_id"`
			Trace   []*trace.TreeNode `json:"trace"`
		}
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatalf("decoding /query response: %v (dump at %s)", err, dump)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /query: %s (%s)", resp.Status, qr.Error)
		}
		if len(qr.Rows) == 0 {
			t.Fatal("traced query returned no rows")
		}
		if qr.TraceID == "" {
			t.Fatalf("response has no trace_id (dump at %s)", dump)
		}
		if len(qr.Trace) != 1 {
			t.Fatalf("trace has %d roots, want 1 (dump at %s)", len(qr.Trace), dump)
		}
		lastID = qr.TraceID

		// The workers' spans crossed two process boundaries and still nest
		// under the coordinator spans that dispatched them.
		var probes []string
		var searchDispatches, searchSpliced, fragSpliced, nodeSpans int
		trace.Walk(qr.Trace, func(n *trace.TreeNode) {
			switch n.Name {
			case "dist.search.dispatch":
				searchDispatches++
				if p, ok := n.Attrs["probe"]; ok {
					probes = append(probes, p)
				}
				for _, c := range n.Children {
					if c.Name == "worker.search" {
						searchSpliced++
					}
				}
			case "dist.execute.dispatch":
				for _, c := range n.Children {
					if c.Name == "worker.fragment" {
						fragSpliced++
					}
				}
			}
			if len(n.Name) > 5 && n.Name[:5] == "node:" {
				nodeSpans++
				if n.Est == nil {
					t.Errorf("plan-node span %s has no estimate (dump at %s)", n.Name, dump)
				}
				if n.Obs == nil {
					t.Errorf("plan-node span %s has no observations (dump at %s)", n.Name, dump)
				}
			}
		})
		if len(probes) != 1 || probes[0] != want.probe {
			t.Errorf("probe dispatches tagged %v, want one probe=%s (dump at %s)", probes, want.probe, dump)
		}
		if searchDispatches != want.dispatches || searchSpliced != want.dispatches {
			t.Errorf("probe=%s: %d search dispatches with %d worker.search spliced, want %d of each (dump at %s)",
				want.probe, searchDispatches, searchSpliced, want.dispatches, dump)
		}
		if fragSpliced == 0 {
			t.Errorf("no worker.fragment span spliced under an execute dispatch (dump at %s)", dump)
		}
		if nodeSpans == 0 {
			t.Errorf("no plan-node spans in the trace (dump at %s)", dump)
		}
	}

	// The coordinator retained the trace: the ring-buffer endpoint
	// serves the same tree by ID.
	var stored trace.Dump
	getJSON(t, "http://"+serveAddr+"/trace/"+lastID, &stored)
	if stored.TraceID != lastID || len(stored.Spans) == 0 {
		t.Errorf("GET /trace/%s = %+v, want the stored dump", lastID, stored)
	}
}

// artifactsDir returns where diagnostic artifacts go: the directory
// named by MDQ_LOAD_ARTIFACTS (created if needed, kept after the run
// so CI can upload it on failure) or a test temp dir.
func artifactsDir(t *testing.T) string {
	t.Helper()
	if dir := os.Getenv("MDQ_LOAD_ARTIFACTS"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatalf("creating artifacts dir %s: %v", dir, err)
		}
		return dir
	}
	return t.TempDir()
}
