package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mdq/internal/card"
	"mdq/internal/cost"
	"mdq/internal/cq"
	"mdq/internal/dist"
	"mdq/internal/opt"
	"mdq/internal/schema"
	"mdq/internal/serve"
	"mdq/internal/trace"
)

// fleetResponse is what GET /fleet returns in coordinator mode.
type fleetResponse struct {
	Workers []dist.WorkerHealth `json:"workers"`
}

// fleet reports the membership view: every worker's state, its
// consecutive-failure count, last probe time and last error.
func (s *Server) fleet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if s.engine.Membership == nil {
		writeError(w, http.StatusNotFound, "not in coordinator mode: no fleet")
		return
	}
	writeJSON(w, fleetResponse{Workers: s.engine.Membership.Snapshot()})
}

// apiError is the uniform JSON error envelope of every endpoint.
type apiError struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
	// BudgetExceeded marks a query aborted by its execution budget
	// (deadline_ms / max_calls), so clients can distinguish "too
	// expensive" from "broken".
	BudgetExceeded bool `json:"budget_exceeded,omitempty"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeErrorEnv(w, apiError{Error: fmt.Sprintf(format, args...), Status: status})
}

func writeErrorEnv(w http.ResponseWriter, env apiError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(env.Status)
	json.NewEncoder(w).Encode(env)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// requestOptions are the body fields POST /optimize and POST /query
// share.
type requestOptions struct {
	Metric string `json:"metric"` // default etm
	Cache  string `json:"cache"`  // none | one-call | optimal
	K      int    `json:"k"`
	// DeadlineMillis caps the request's wall-clock budget; past it the
	// search/execution aborts with a budget_exceeded error (0 = the
	// server's -default-deadline).
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// MaxCalls caps the logical service calls an execution may issue
	// (0 = the server's -default-max-calls).
	MaxCalls int64 `json:"max_calls,omitempty"`
	// Trace records a full span trace of this request — optimizer
	// phases, fragment dispatches, per-plan-node estimate-vs-actual —
	// and returns it on the response (also retained for GET
	// /trace/{id}). Explicit tracing ignores the -trace-sample rate.
	Trace bool `json:"trace,omitempty"`
}

type optimizeRequest struct {
	Query string `json:"query"`
	requestOptions
}

type queryRequest struct {
	Template string         `json:"template"`
	Bindings map[string]any `json:"bindings"`
	// Execute runs the optimized plan and returns the answers;
	// defaults to true (omit or set false for optimize-only).
	Execute *bool `json:"execute"`
	requestOptions
}

// queryResponse answers both endpoints; /optimize fills the plan half
// only.
type queryResponse struct {
	Plan        string    `json:"plan"`
	Cost        float64   `json:"cost"`
	Metric      string    `json:"metric"`
	Feasible    bool      `json:"feasible"`
	Cached      bool      `json:"cached"`
	TemplateHit bool      `json:"template_hit,omitempty"`
	Revalidated bool      `json:"revalidated,omitempty"`
	Stats       opt.Stats `json:"stats"`
	// TraceID / Trace return the recorded span tree when the request
	// set "trace": true. The same dump stays retrievable at
	// GET /trace/{trace_id} until the ring store evicts it.
	TraceID string            `json:"trace_id,omitempty"`
	Trace   []*trace.TreeNode `json:"trace,omitempty"`
	Head    []string          `json:"head,omitempty"`
	Rows    [][]string        `json:"rows,omitempty"`
	Calls   map[string]int64  `json:"calls,omitempty"`
	Elapsed float64           `json:"elapsed_seconds,omitempty"`
	// FirstRowMillis is the time from the start of plan execution to
	// its first result row (streaming runtime; absent when the query
	// produced no rows).
	FirstRowMillis float64           `json:"first_row_ms,omitempty"`
	Epochs         map[string]uint64 `json:"epochs,omitempty"`
}

// decode reads a POST body into req and decodes the metric/cache/k
// triple of its options (o points into req); it writes the 4xx itself.
func decode(w http.ResponseWriter, r *http.Request, req any, o *requestOptions) (kn Knobs, ok bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return kn, false
	}
	if err := json.NewDecoder(r.Body).Decode(req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return kn, false
	}
	if o.Metric == "" {
		o.Metric = "etm"
	}
	if kn.Metric, ok = cost.ByName(o.Metric); !ok {
		writeError(w, http.StatusBadRequest, "unknown metric %q", o.Metric)
		return kn, false
	}
	if kn.Estimator.Mode, ok = card.ModeByName(o.Cache); !ok {
		writeError(w, http.StatusBadRequest, "unknown cache mode %q", o.Cache)
		return kn, false
	}
	if kn.K = o.K; kn.K == 0 {
		kn.K = 10
	}
	return kn, true
}

func (s *Server) optimize(w http.ResponseWriter, r *http.Request) {
	var req optimizeRequest
	kn, ok := decode(w, r, &req, &req.requestOptions)
	if !ok {
		return
	}
	q, err := cq.Parse(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parsing query: %v", err)
		return
	}
	s.answer(w, r, "/optimize", req.Query, q, kn, req.requestOptions, false)
}

// bindValue converts a JSON binding into a schema value: numbers map
// to numeric values, strings that parse as dates become dates, and
// everything else textual stays a string.
func bindValue(v any) (schema.Value, error) {
	switch x := v.(type) {
	case float64:
		return schema.N(x), nil
	case string:
		for _, layout := range []string{"2006/01/02", "2006-01-02"} {
			if t, err := time.Parse(layout, x); err == nil {
				return schema.D(t.Year(), t.Month(), t.Day()), nil
			}
		}
		return schema.S(x), nil
	default:
		return schema.Value{}, fmt.Errorf("unsupported binding type %T", v)
	}
}

func (s *Server) query(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	kn, ok := decode(w, r, &req, &req.requestOptions)
	if !ok {
		return
	}
	tpl, err := cq.ParseTemplate(req.Template)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parsing template: %v", err)
		return
	}
	values := make(map[string]schema.Value, len(req.Bindings))
	for name, raw := range req.Bindings {
		v, err := bindValue(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "binding $%s: %v", name, err)
			return
		}
		values[name] = v
	}
	q, err := tpl.Bind(values)
	if err != nil {
		writeError(w, http.StatusBadRequest, "binding template: %v", err)
		return
	}
	s.answer(w, r, "/query", req.Template, q, kn, req.requestOptions, req.Execute == nil || *req.Execute)
}

// answer serves one parsed request of either endpoint: resolve the
// query, open the request's trace and budget, run it — through the
// coalescer when it executes — and write the reply. /query optimizes
// through the template cache and may execute; /optimize does neither.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, endpoint, text string, q *cq.Query, kn Knobs, o requestOptions, execute bool) {
	sch, err := s.engine.Registry.Schema()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "assembling schema: %v", err)
		return
	}
	if err := q.Resolve(sch); err != nil {
		writeError(w, http.StatusBadRequest, "resolving query: %v", err)
		return
	}
	ctx := r.Context()
	st := statsFrom(ctx)
	st.Query = text
	if o.Trace {
		ctx = forceTrace(ctx, st, endpoint)
	}
	budget := requestBudget(o.DeadlineMillis, o.MaxCalls, s.defDeadline, s.defMaxCalls)
	if budget != nil {
		var cancel context.CancelFunc
		ctx, cancel = budget.Context(ctx)
		defer cancel()
	}
	template := endpoint == "/query"
	var resp *queryResponse
	if s.coalescer != nil && execute {
		// Identical concurrent requests — same canonical query (query
		// shape + bindings + statistics identity) and knobs — attach to
		// one in-flight optimize+execute. The flight runs under the
		// leader's context and budget; a waiter whose own budget trips
		// detaches with its own 504 while the flight continues.
		csp := trace.From(ctx).Child("coalesce")
		var v any
		v, st.Coalesced, err = s.coalescer.Do(ctx, coalesceKey(q, kn), func() (any, error) {
			return s.runQuery(ctx, q, kn, budget, template, true, st)
		})
		csp.Set("coalesced", strconv.FormatBool(st.Coalesced))
		csp.End()
		if err == nil {
			// Shallow-copy before attaching per-request trace fields: the
			// underlying response is shared with every coalesced caller.
			cp := *(v.(*queryResponse))
			resp = &cp
			if st.Coalesced {
				// A waiter reports the shared outcome under its own
				// accounting: the rows exist, but no search ran and no
				// service calls were issued on this request's behalf.
				st.Rows = len(resp.Rows)
				st.CacheClass = "coalesced"
			}
		}
	} else {
		resp, err = s.runQuery(ctx, q, kn, budget, template, execute, st)
	}
	if err != nil {
		st.Err = err
		writeQueryFailure(w, err)
		return
	}
	if o.Trace && st.Trace != nil {
		st.TraceRoot.End()
		resp.TraceID = st.Trace.ID()
		resp.Trace = trace.Tree(st.Trace.Spans())
		if template {
			w.Header().Set("X-Mdq-Trace-Id", resp.TraceID)
		}
	}
	writeJSON(w, resp)
}

// coalesceKey identifies the shareable unit of /query work: the
// resolved query's canonical key (structure, bindings and statistics
// identity) plus every knob that changes the outcome. Budget,
// deadline and trace flags stay out — they are per-caller.
func coalesceKey(q *cq.Query, kn Knobs) string {
	return q.CanonicalKey() + "\x00" + kn.Metric.Name() + "\x00" + strconv.Itoa(int(kn.Estimator.Mode)) + "\x00" + strconv.Itoa(kn.K)
}

// runQuery is the shared core of both endpoints — one optimization
// (through the template cache when template is set) plus, when execute
// is set, one plan execution. It is the unit of work a coalesced flight
// runs once on behalf of every attached request; st is the leader's
// accounting slot. Errors return phase-prefixed ("optimizing:" /
// "executing:") and re-typed as the budget violation when the leader's
// budget tripped.
func (s *Server) runQuery(ctx context.Context, q *cq.Query, kn Knobs, budget *serve.Budget, template, execute bool, st *reqStats) (*queryResponse, error) {
	optimize := s.engine.Optimize
	if template {
		optimize = s.engine.OptimizeTemplate
	}
	optStart := time.Now()
	res, err := optimize(ctx, q, kn)
	st.Optimize = time.Since(optStart)
	if err != nil {
		return nil, fmt.Errorf("optimizing: %w", budgetAware(budget, err))
	}
	st.CacheClass = cacheClass(res.TemplateHit, res.Revalidated, res.Cached)
	resp := &queryResponse{
		Plan:        res.Best.Describe(),
		Cost:        res.Cost,
		Metric:      kn.Metric.Name(),
		Feasible:    res.Feasible,
		Cached:      res.Cached,
		TemplateHit: res.TemplateHit,
		Revalidated: res.Revalidated,
		Stats:       res.Stats,
	}
	if execute {
		execStart := time.Now()
		out, err := s.engine.Execute(ctx, res.Best, kn)
		st.Execute = time.Since(execStart)
		if err != nil {
			return nil, fmt.Errorf("executing: %w", budgetAware(budget, err))
		}
		st.FirstRow = out.FirstRow
		for _, v := range out.Head {
			resp.Head = append(resp.Head, string(v))
		}
		for _, row := range out.Rows {
			resp.Rows = append(resp.Rows, RenderRow(row))
		}
		for _, v := range out.Stats.Calls {
			st.Calls += v
		}
		st.Rows = len(resp.Rows)
		resp.Calls = out.Stats.Calls
		resp.Elapsed = out.Elapsed.Seconds()
		resp.FirstRowMillis = float64(out.FirstRow) / float64(time.Millisecond)
		resp.Epochs = s.engine.Registry.Epochs()
	}
	return resp, nil
}

// RenderRow formats one result row the way every mdq surface prints
// it: strings verbatim, dates as 2006-01-02, numbers with two decimals
// and a trailing ".00" trimmed.
func RenderRow(row []schema.Value) []string {
	out := make([]string, len(row))
	for i, v := range row {
		switch v.Kind {
		case schema.StringValue:
			out[i] = v.Str
		case schema.DateValue:
			out[i] = v.Time().Format("2006-01-02")
		default:
			out[i] = strings.TrimSuffix(strconv.FormatFloat(v.Num, 'f', 2, 64), ".00")
		}
	}
	return out
}

func (s *Server) cacheStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.engine.Cache.Stats())
}

type cacheReport struct {
	Stats   opt.CacheStats  `json:"stats"`
	Entries []opt.EntryInfo `json:"entries"`
}

func (s *Server) cacheReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, cacheReport{Stats: s.engine.Cache.Stats(), Entries: s.engine.Cache.Entries()})
}

type serviceReport struct {
	Epoch        uint64  `json:"epoch"`
	ERSPI        float64 `json:"erspi"`
	ResponseSecs float64 `json:"response_seconds"`
	ChunkSize    int     `json:"chunk_size"`
	// Observation window since the last refresh.
	ObservedCalls   int64 `json:"observed_calls"`
	ObservedFetches int64 `json:"observed_fetches"`
	ObservedRows    int64 `json:"observed_rows"`
	// Attributes summarizes the per-attribute value distributions
	// (profiled at registration or learned from traffic); attributes
	// without statistics are omitted.
	Attributes map[string]attrReport `json:"attributes,omitempty"`
}

// attrReport summarizes one attribute's value distribution for the
// stats endpoint: overall shape plus the most common values.
type attrReport struct {
	Rows     float64     `json:"rows"`
	Distinct float64     `json:"distinct"`
	Buckets  int         `json:"buckets"`
	TopMCVs  []mcvReport `json:"top_mcvs,omitempty"`
}

type mcvReport struct {
	Value string  `json:"value"`
	Frac  float64 `json:"frac"`
}

func attrReports(sig *schema.Signature) map[string]attrReport {
	var out map[string]attrReport
	st := sig.Statistics()
	for i, attr := range sig.Attrs {
		d := st.Distribution(i)
		if d.Empty() {
			continue
		}
		rep := attrReport{Rows: d.Total, Distinct: d.Distinct, Buckets: len(d.Buckets)}
		for j, m := range d.MCVs {
			if j == 3 {
				break
			}
			rep.TopMCVs = append(rep.TopMCVs, mcvReport{Value: m.Value.String(), Frac: m.Frac})
		}
		if out == nil {
			out = map[string]attrReport{}
		}
		name := attr.Name
		if name == "" {
			name = fmt.Sprintf("arg%d", i)
		}
		out[name] = rep
	}
	return out
}

func (s *Server) serviceStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	out := map[string]serviceReport{}
	for _, svc := range s.engine.Registry.Services() {
		sig := svc.Signature()
		st := sig.Statistics()
		rep := serviceReport{
			Epoch:        s.engine.Registry.Epoch(sig.Name),
			ERSPI:        st.ERSPI,
			ResponseSecs: st.ResponseTime.Seconds(),
			ChunkSize:    st.ChunkSize,
			Attributes:   attrReports(sig),
		}
		if ob, ok := s.engine.Registry.Observer(sig.Name); ok {
			rep.ObservedCalls, rep.ObservedFetches, rep.ObservedRows = ob.Observations()
		}
		out[sig.Name] = rep
	}
	writeJSON(w, out)
}
