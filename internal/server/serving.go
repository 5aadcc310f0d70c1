package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"mdq/internal/serve"
	"mdq/internal/trace"
)

// observability bundles the serving-layer state every request flows
// through: the admission gate, the metrics registry, the slow-query
// log, the trace plane (sampler + ring store) and the audit event
// bus, plus the pre-resolved instruments the hot path updates.
type observability struct {
	admission *serve.Admission
	metrics   *serve.Metrics
	slowlog   *serve.SlowLog
	// sampler decides which requests get traced without asking
	// (-trace-sample); explicit "trace": true requests always do.
	sampler *trace.Sampler
	// traceAll records a trace for every request so slowlog-qualifying
	// ones can be kept — enabled when -slow-above is positive (a
	// request is only known to be slow after it finished, so the spans
	// must already exist). Retention still requires qualification.
	traceAll bool
	// traces is the ring-buffered store behind GET /trace.
	traces *trace.Store
	// events is the merged audit stream behind GET /events.
	events *serve.EventBus

	inflight *serve.Gauge
}

func newObservability(maxInFlight int, queueWait time.Duration, slowCap int, slowThreshold time.Duration, sampleRate float64) *observability {
	m := serve.NewMetrics()
	o := &observability{
		admission: serve.NewAdmission(maxInFlight, queueWait),
		metrics:   m,
		slowlog:   serve.NewSlowLog(slowCap, slowThreshold),
		sampler:   trace.NewSampler(sampleRate),
		traceAll:  slowThreshold > 0,
		traces:    trace.NewStore(0),
		events:    serve.NewEventBus(0),
		inflight:  m.Gauge("mdq_inflight_requests", "Admitted requests currently executing."),
	}
	dropped := m.Counter("mdq_events_dropped_total",
		"Audit events evicted from the bus before any consumer saw them.")
	o.events.OnDrop = func(n int) { dropped.Add(float64(n)) }
	return o
}

// reqStats is the per-request accounting the handlers fill in while
// the middleware owns the record's envelope (endpoint, status, bytes,
// total elapsed).
type reqStats struct {
	Query      string
	Optimize   time.Duration
	Execute    time.Duration
	FirstRow   time.Duration
	Calls      int64
	CacheClass string
	Rows       int
	Err        error
	// Coalesced marks a request that attached to another request's
	// in-flight optimize+execute instead of running its own.
	Coalesced bool
	// Trace / TraceRoot carry the request's trace when one is being
	// recorded — created by the middleware (sampled, or slowlog
	// pre-recording) or by the handler (explicit "trace": true, which
	// also sets TraceForced). TraceSampled marks sampler-chosen traces;
	// the middleware decides retention from the three flags.
	Trace        *trace.Trace
	TraceRoot    *trace.Span
	TraceForced  bool
	TraceSampled bool
}

type reqStatsKey struct{}

// statsFrom returns the request's accounting slot; handlers outside
// the instrumented paths get a discardable dummy.
func statsFrom(ctx context.Context) *reqStats {
	if st, ok := ctx.Value(reqStatsKey{}).(*reqStats); ok {
		return st
	}
	return &reqStats{}
}

// CountingWriter tracks the status code and body bytes a handler
// produced (Status stays 0 until the handler writes).
type CountingWriter struct {
	http.ResponseWriter
	Status int
	Bytes  int64
}

// WriteHeader records the first status written.
func (cw *CountingWriter) WriteHeader(status int) {
	if cw.Status == 0 {
		cw.Status = status
	}
	cw.ResponseWriter.WriteHeader(status)
}

// Write counts the body bytes (an implicit 200 when no header was
// written).
func (cw *CountingWriter) Write(p []byte) (int, error) {
	if cw.Status == 0 {
		cw.Status = http.StatusOK
	}
	n, err := cw.ResponseWriter.Write(p)
	cw.Bytes += int64(n)
	return n, err
}

// Flush lets streaming handlers keep flushing through the wrapper.
func (cw *CountingWriter) Flush() {
	if f, ok := cw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// shed writes the backpressure response for a rejected request: 429
// with Retry-After when the gate is saturated, 503 when the server is
// draining.
func (o *observability) shed(w http.ResponseWriter, endpoint string, err error) {
	status := http.StatusServiceUnavailable
	reason := "draining"
	retryAfter := 5
	if errors.Is(err, serve.ErrSaturated) {
		status = http.StatusTooManyRequests
		reason = "saturated"
		retryAfter = 1
	}
	o.metrics.CounterL("mdq_admission_shed_total",
		"Requests rejected by admission control.", "reason", reason).Inc()
	o.metrics.CounterL("mdq_requests_total",
		"Requests by endpoint and status code.",
		"endpoint", endpoint, "code", strconv.Itoa(status)).Inc()
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, `{"error":%q,"status":%d,"retry_after_seconds":%d}`+"\n",
		err.Error(), status, retryAfter)
}

// instrument wraps a serving endpoint with admission control and
// per-request accounting: the request is admitted (or shed with
// backpressure), timed, counted into the metrics registry, and its
// record offered to the slow-query log.
func (o *observability) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, err := o.admission.Acquire(r.Context())
		if err != nil {
			if errors.Is(err, serve.ErrSaturated) || errors.Is(err, serve.ErrDraining) {
				o.shed(w, endpoint, err)
				return
			}
			// The client gave up while queued.
			writeError(w, http.StatusRequestTimeout, "queued request cancelled: %v", err)
			return
		}
		defer release()
		o.inflight.Add(1)
		defer o.inflight.Add(-1)

		st := &reqStats{}
		// The trace decision the middleware can make on its own: the
		// sampler fired, or every request is pre-recorded because only
		// a finished request reveals whether it was slow enough to keep
		// (-slow-above). Explicit "trace": true lives in the body, so
		// the handler adds its own trace when neither fired here.
		if st.TraceSampled = o.sampler.Sample(); st.TraceSampled || o.traceAll {
			st.Trace = trace.New("")
			st.TraceRoot = st.Trace.Root(endpoint)
		}
		cw := &CountingWriter{ResponseWriter: w}
		start := time.Now()
		ctx := context.WithValue(r.Context(), reqStatsKey{}, st)
		if st.TraceRoot != nil {
			ctx = trace.With(ctx, st.TraceRoot)
		}
		h(cw, r.WithContext(ctx))
		elapsed := time.Since(start)
		if cw.Status == 0 {
			cw.Status = http.StatusOK
		}

		o.metrics.CounterL("mdq_requests_total",
			"Requests by endpoint and status code.",
			"endpoint", endpoint, "code", strconv.Itoa(cw.Status)).Inc()
		o.metrics.HistogramL("mdq_request_seconds",
			"End-to-end request latency.", nil, "endpoint", endpoint).Observe(elapsed.Seconds())
		if st.Optimize > 0 {
			o.metrics.Histogram("mdq_optimize_seconds",
				"Time spent in plan search and template re-costing.", nil).Observe(st.Optimize.Seconds())
		}
		if st.Execute > 0 {
			o.metrics.Histogram("mdq_execute_seconds",
				"Time spent executing the chosen plan.", nil).Observe(st.Execute.Seconds())
		}
		if st.FirstRow > 0 {
			o.metrics.Histogram("mdq_exec_first_row_seconds",
				"Time from the start of plan execution to its first result row.", nil).Observe(st.FirstRow.Seconds())
		}
		if st.Calls > 0 {
			o.metrics.Counter("mdq_service_calls_total",
				"Logical service calls issued by executions.").Add(float64(st.Calls))
		}
		if st.Rows > 0 {
			o.metrics.Counter("mdq_result_rows_total",
				"Result rows returned to clients.").Add(float64(st.Rows))
		}
		o.metrics.Counter("mdq_bytes_streamed_total",
			"Response body bytes streamed to clients.").Add(float64(cw.Bytes))
		if st.CacheClass != "" {
			o.metrics.CounterL("mdq_plan_cache_serves_total",
				"Optimizations by plan-cache outcome class.", "class", st.CacheClass).Inc()
		}
		if st.Coalesced {
			o.metrics.Counter("mdq_query_coalesced_total",
				"Query requests answered by attaching to an identical in-flight request.").Inc()
		}
		rec := serve.RequestRecord{
			Time:            start,
			Endpoint:        endpoint,
			Query:           st.Query,
			Status:          cw.Status,
			Elapsed:         elapsed.Seconds(),
			OptimizeSeconds: st.Optimize.Seconds(),
			ExecuteSeconds:  st.Execute.Seconds(),
			FirstRowMillis:  float64(st.FirstRow) / float64(time.Millisecond),
			Calls:           st.Calls,
			CacheClass:      st.CacheClass,
			Rows:            st.Rows,
			Bytes:           cw.Bytes,
		}
		if st.Err != nil {
			rec.Error = st.Err.Error()
			if errors.Is(st.Err, serve.ErrBudgetExceeded) {
				reason := "unknown"
				var be *serve.BudgetError
				if errors.As(st.Err, &be) {
					reason = be.Reason
				}
				o.metrics.CounterL("mdq_budget_exceeded_total",
					"Queries aborted by their execution budget.", "reason", reason).Inc()
				o.events.Publish("budget", map[string]string{
					"endpoint": endpoint, "reason": reason, "error": rec.Error})
			}
		}
		if st.Trace != nil {
			st.TraceRoot.End()
			// Retention: explicitly requested traces and sampled ones are
			// always kept; pre-recorded ones only when the request turned
			// out slowlog-qualifying. Everything else is dropped whole —
			// the store never sees unsampled fast requests.
			keep := st.TraceForced || st.TraceSampled ||
				(o.slowlog.Threshold > 0 && elapsed >= o.slowlog.Threshold)
			if keep {
				rec.TraceID = st.Trace.ID()
				o.traces.Add(trace.Dump{TraceID: st.Trace.ID(), Time: start, Spans: trace.Tree(st.Trace.Spans())})
			}
		}
		o.slowlog.Record(rec)
		if o.slowlog.Threshold > 0 && elapsed >= o.slowlog.Threshold {
			o.events.PublishRecord(rec)
		}
	}
}

// forceTrace marks the request's trace as explicitly requested
// ("trace": true), creating one on the spot when neither the sampler
// nor slowlog pre-recording already did — the middleware cannot see
// the request body, so the handler owns this decision. Returns the
// context carrying the trace root.
func forceTrace(ctx context.Context, st *reqStats, name string) context.Context {
	st.TraceForced = true
	if st.Trace == nil {
		st.Trace = trace.New("")
		st.TraceRoot = st.Trace.Root(name)
	}
	return trace.With(ctx, st.TraceRoot)
}

// requestBudget assembles the per-query execution budget from the
// request's deadline_ms / max_calls fields, falling back to the
// server-wide defaults; nil when neither source sets a limit.
func requestBudget(deadlineMS, maxCalls int64, defDeadline time.Duration, defCalls int64) *serve.Budget {
	d := defDeadline
	if deadlineMS > 0 {
		d = time.Duration(deadlineMS) * time.Millisecond
	}
	c := defCalls
	if maxCalls > 0 {
		c = maxCalls
	}
	if d <= 0 && c <= 0 {
		return nil
	}
	return serve.NewBudget(d, c)
}

// budgetAware re-types an optimize/execute failure as the budget
// violation when the request's budget tripped (a cancelled search or
// stream must surface as "budget exceeded", not as the cancellation
// it caused downstream).
func budgetAware(b *serve.Budget, err error) error {
	if b != nil {
		if berr := b.Err(); berr != nil {
			return berr
		}
	}
	return err
}

// writeQueryFailure maps a failed request to the wire: budget trips
// become 504 with the budget_exceeded marker, everything else 422. The
// error already carries its phase prefix (runQuery wraps it before it
// crosses the coalescer, so waiters inherit the leader's phase too).
func writeQueryFailure(w http.ResponseWriter, err error) {
	if errors.Is(err, serve.ErrBudgetExceeded) {
		writeErrorEnv(w, apiError{
			Error:          err.Error(),
			Status:         http.StatusGatewayTimeout,
			BudgetExceeded: true,
		})
		return
	}
	writeError(w, http.StatusUnprocessableEntity, "%v", err)
}

// cacheClass classifies how the optimizer answered for accounting:
// fresh search, exact-plan hit, template hit, or a template hit that
// had to revalidate.
func cacheClass(templateHit, revalidated, cached bool) string {
	switch {
	case templateHit && revalidated:
		return "revalidated"
	case templateHit:
		return "template"
	case cached:
		return "exact"
	default:
		return "miss"
	}
}
