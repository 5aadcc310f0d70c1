package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"mdq/internal/opt"
	"mdq/internal/serve"
	"mdq/internal/service"
)

// Transport is a coordinator's handle on one worker. HTTPTransport
// speaks the wire protocol to a remote Worker.Handler; LocalTransport
// calls an in-process Worker directly, so tests drive the whole
// protocol without sockets.
type Transport interface {
	// Name identifies the worker in errors and logs.
	Name() string
	// Search runs one shard search to completion.
	Search(ctx context.Context, req SearchRequest) (*SearchResult, error)
	// Sync performs one bound exchange for a running search: offer
	// the coordinator's bound, learn the worker's (0 = no info).
	Sync(ctx context.Context, id string, bound float64) (float64, error)
	// Gossip delivers statistics-epoch bumps to the worker's cache.
	Gossip(ctx context.Context, bumps []service.EpochBump) error
	// ImportTemplates ships serialized template entries for warmup.
	ImportTemplates(ctx context.Context, entries []opt.TemplateWireEntry) (int, error)
	// Services lists the service names the worker's registry hosts —
	// what the coordinator partitions plan fragments by.
	Services(ctx context.Context) ([]string, error)
	// ExecuteFragment runs one plan fragment on the worker, streaming
	// tuple batches to sink as the fragment's tail produces them, and
	// returns the final accounting frame.
	ExecuteFragment(ctx context.Context, req ExecuteRequest, sink func(batch []WireTuple) error) (*ExecuteResult, error)
	// Probe checks the worker is alive and serving — the health check
	// Membership feeds its state machine with. It must be cheap: no
	// search, no execution, just liveness.
	Probe(ctx context.Context) error
}

// LocalTransport runs a Worker in-process. It is the transport tier-1
// tests exercise the full coordinator/worker protocol through —
// sharded search, bound-sync, gossip, warmup — with no sockets (the
// dev environments are single-CPU, so correctness, not wall-clock, is
// what in-process distribution demonstrates).
type LocalTransport struct {
	// Worker is the in-process worker.
	Worker *Worker
	// Label names the worker (defaults to "local").
	Label string
}

// Name implements Transport.
func (t LocalTransport) Name() string {
	if t.Label != "" {
		return t.Label
	}
	return "local"
}

// Search implements Transport.
func (t LocalTransport) Search(ctx context.Context, req SearchRequest) (*SearchResult, error) {
	return t.Worker.Search(ctx, req)
}

// Sync implements Transport.
func (t LocalTransport) Sync(_ context.Context, id string, bound float64) (float64, error) {
	return t.Worker.Sync(id, bound), nil
}

// Gossip implements Transport.
func (t LocalTransport) Gossip(_ context.Context, bumps []service.EpochBump) error {
	t.Worker.Gossip(bumps)
	return nil
}

// ImportTemplates implements Transport.
func (t LocalTransport) ImportTemplates(_ context.Context, entries []opt.TemplateWireEntry) (int, error) {
	return t.Worker.ImportTemplates(entries), nil
}

// Services implements Transport.
func (t LocalTransport) Services(_ context.Context) ([]string, error) {
	var names []string
	for _, svc := range t.Worker.Registry().Services() {
		names = append(names, svc.Signature().Name)
	}
	return names, nil
}

// ExecuteFragment implements Transport.
func (t LocalTransport) ExecuteFragment(ctx context.Context, req ExecuteRequest, sink func(batch []WireTuple) error) (*ExecuteResult, error) {
	return t.Worker.ExecuteFragment(ctx, req, sink)
}

// Probe implements Transport: an in-process worker is alive by
// construction.
func (t LocalTransport) Probe(context.Context) error { return nil }

// HTTPTransport speaks the worker protocol over HTTP (JSON bodies,
// mdqserve-style error envelopes). The zero value of HTTP means
// http.DefaultClient.
type HTTPTransport struct {
	// Base is the worker's base URL (no trailing slash), e.g.
	// "http://worker-1:8090".
	Base string
	// HTTP overrides the client (nil means http.DefaultClient).
	HTTP *http.Client
}

// Name implements Transport.
func (t *HTTPTransport) Name() string { return t.Base }

func (t *HTTPTransport) client() *http.Client {
	if t.HTTP != nil {
		return t.HTTP
	}
	return http.DefaultClient
}

// classifyStatus wraps err as transient when the status is a server
// failure (5xx: a crashed handler, an overloaded proxy, a restarting
// worker) and leaves client errors permanent (4xx: the request itself
// is wrong; retrying repeats the failure).
func classifyStatus(ctx context.Context, status int, err error) error {
	if status >= 500 {
		return transientUnless(ctx, err)
	}
	return err
}

// post sends one JSON request and decodes the JSON response,
// surfacing the worker's error envelope on non-200s. A non-empty
// traceID is mirrored in an X-Mdq-Trace-Id header so HTTP-level
// middleware (access logs, proxies) can correlate the RPC with the
// query trace without parsing the body. Transport-layer failures
// (refused, reset, timed out, 5xx) come back wrapped in
// TransientError so the coordinator's retry loops can classify them;
// protocol errors stay permanent.
func (t *HTTPTransport) post(ctx context.Context, path, traceID string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.Base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set("X-Mdq-Trace-Id", traceID)
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return transientUnless(ctx, fmt.Errorf("dist: %s%s: %w", t.Base, path, err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var env apiError
		if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&env) == nil && env.Error != "" {
			return classifyStatus(ctx, resp.StatusCode, fmt.Errorf("dist: %s%s: %s", t.Base, path, env.Error))
		}
		return classifyStatus(ctx, resp.StatusCode, fmt.Errorf("dist: %s%s returned %s", t.Base, path, resp.Status))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		// A 200 whose body dies mid-decode is a dropped connection.
		return transientUnless(ctx, fmt.Errorf("dist: %s%s response: %w", t.Base, path, err))
	}
	return nil
}

// Search implements Transport.
func (t *HTTPTransport) Search(ctx context.Context, req SearchRequest) (*SearchResult, error) {
	var res SearchResult
	if err := t.post(ctx, "/dist/search", req.TraceID, req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Sync implements Transport.
func (t *HTTPTransport) Sync(ctx context.Context, id string, bound float64) (float64, error) {
	var res SyncResponse
	if err := t.post(ctx, "/dist/sync", "", SyncRequest{ID: id, Bound: bound}, &res); err != nil {
		return 0, err
	}
	return res.Bound, nil
}

// Gossip implements Transport.
func (t *HTTPTransport) Gossip(ctx context.Context, bumps []service.EpochBump) error {
	var res ImportResponse
	return t.post(ctx, "/dist/gossip", "", GossipRequest{Bumps: bumps}, &res)
}

// ImportTemplates implements Transport.
func (t *HTTPTransport) ImportTemplates(ctx context.Context, entries []opt.TemplateWireEntry) (int, error) {
	var res ImportResponse
	if err := t.post(ctx, "/dist/templates", "", entries, &res); err != nil {
		return 0, err
	}
	return res.Imported, nil
}

// Services implements Transport (GET /dist/info).
func (t *HTTPTransport) Services(ctx context.Context) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.Base+"/dist/info", nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return nil, transientUnless(ctx, fmt.Errorf("dist: %s/dist/info: %w", t.Base, err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, classifyStatus(ctx, resp.StatusCode,
			fmt.Errorf("dist: %s/dist/info returned %s", t.Base, resp.Status))
	}
	var info struct {
		Services []string `json:"services"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, transientUnless(ctx, err)
	}
	return info.Services, nil
}

// Probe implements Transport: GET /dist/health. Any failure — refused
// connection, timeout, non-200 — is transient: health is exactly the
// condition expected to change.
func (t *HTTPTransport) Probe(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.Base+"/dist/health", nil)
	if err != nil {
		return err
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return transientUnless(ctx, fmt.Errorf("dist: %s/dist/health: %w", t.Base, err))
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return transientUnless(ctx, fmt.Errorf("dist: %s/dist/health returned %s", t.Base, resp.Status))
	}
	return nil
}

// retypeBudget rebuilds the typed budget violation a worker's JSON
// response stringified: the result always matches
// errors.Is(serve.ErrBudgetExceeded), and when the violated dimension
// traveled on the wire it matches errors.As(*serve.BudgetError) too.
func retypeBudget(msg, reason, limit string) error {
	if reason == "" {
		return fmt.Errorf("%s: %w", msg, serve.ErrBudgetExceeded)
	}
	return fmt.Errorf("%s: %w", msg, &serve.BudgetError{Reason: reason, Limit: limit})
}

// ExecuteFragment implements Transport: POST /dist/execute, reading
// the newline-delimited frame stream — tuple batches to sink as they
// arrive, then the final accounting frame.
func (t *HTTPTransport) ExecuteFragment(ctx context.Context, req ExecuteRequest, sink func(batch []WireTuple) error) (*ExecuteResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, t.Base+"/dist/execute", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if req.TraceID != "" {
		hreq.Header.Set("X-Mdq-Trace-Id", req.TraceID)
	}
	resp, err := t.client().Do(hreq)
	if err != nil {
		return nil, transientUnless(ctx, fmt.Errorf("dist: %s/dist/execute: %w", t.Base, err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var env apiError
		if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&env) == nil && env.Error != "" {
			if env.BudgetExceeded {
				// Re-type the worker's budget trip: stringified over the
				// wire, it must still satisfy errors.Is (and errors.As,
				// when the violated dimension traveled too) on this side.
				// Budget trips are never transient — the envelope check
				// runs before the 5xx classification so the worker's 504
				// cannot be mistaken for a retryable server failure.
				return nil, fmt.Errorf("dist: %s/dist/execute: %w",
					t.Base, retypeBudget(env.Error, env.BudgetReason, env.BudgetLimit))
			}
			return nil, classifyStatus(ctx, resp.StatusCode,
				fmt.Errorf("dist: %s/dist/execute: %s", t.Base, env.Error))
		}
		return nil, classifyStatus(ctx, resp.StatusCode,
			fmt.Errorf("dist: %s/dist/execute returned %s", t.Base, resp.Status))
	}
	// One frame per line (see framecodec.go); a done frame carrying a
	// traced fragment's spans is the longest line there is.
	lines := bufio.NewScanner(resp.Body)
	lines.Buffer(nil, 1<<30)
	seq := 0
	for lines.Scan() {
		line := lines.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		fr, err := decodeFrame(line)
		if err != nil {
			// A torn line is a connection that died mid-frame.
			return nil, transientUnless(ctx, fmt.Errorf("dist: %s/dist/execute stream: %w", t.Base, err))
		}
		if fr.Error != "" {
			if fr.BudgetExceeded {
				return nil, fmt.Errorf("dist: %s/dist/execute: %w",
					t.Base, retypeBudget(fr.Error, fr.BudgetReason, fr.BudgetLimit))
			}
			return nil, fmt.Errorf("dist: %s/dist/execute: %s", t.Base, fr.Error)
		}
		if len(fr.Batch) > 0 {
			// Batch frames carry sequence numbers; a gap means frames
			// were lost in transit (a proxy truncated and respliced the
			// stream), which only a re-dispatch can repair.
			if fr.Seq != seq {
				return nil, transientUnless(ctx,
					fmt.Errorf("dist: %s/dist/execute stream gap: frame %d arrived, expected %d", t.Base, fr.Seq, seq))
			}
			seq++
			if sink != nil {
				if err := sink(fr.Batch); err != nil {
					return nil, err
				}
			}
		}
		if fr.Done != nil {
			return fr.Done, nil
		}
	}
	// A stream that dies before its final frame is a vanished worker
	// (SIGKILL closes the socket mid-body): transient, so the coordinator
	// can re-dispatch the fragment elsewhere.
	if err := lines.Err(); err != nil {
		return nil, transientUnless(ctx, fmt.Errorf("dist: %s/dist/execute stream: %w", t.Base, err))
	}
	return nil, transientUnless(ctx,
		fmt.Errorf("dist: %s/dist/execute stream ended without a final frame", t.Base))
}
