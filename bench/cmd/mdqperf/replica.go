package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"mdq/bench/workload"
	"mdq/internal/card"
	"mdq/internal/cost"
	"mdq/internal/cq"
	"mdq/internal/dist"
	"mdq/internal/exec"
	"mdq/internal/opt"
	"mdq/internal/plan"
	"mdq/internal/rescache"
	"mdq/internal/schema"
	"mdq/internal/serve"
	"mdq/internal/service"
)

// replica is cmd/mdqserve's POST /query path — the handler `query`
// and its core `runQuery` — assembled in-process from the layers'
// public functions, with a harness-owned span around every call into
// a layer. mdqserve is a package main and cannot be imported, so the
// call sequence is repeated here; runTraced checks on every traced run
// that the copy still answers and costs what the real server does.
// Every knob is the server's default, as the benchmark starts the
// real processes with default flags.
type replica struct {
	rec       *recorder
	reg       *service.Registry
	cache     *opt.PlanCache
	rescache  *rescache.Store // single-process executions only
	feedback  *service.FeedbackPolicy
	coalescer *serve.Coalescer
	admission *serve.Admission

	// Coordinator mode (fleet workloads).
	workers    []dist.Transport
	hosts      []map[string]bool
	membership *dist.Membership
	closers    []func()

	// calls collects the service invocations the timing decorator saw.
	calls *callLog
}

// The defaults of mdqserve's and mdqworker's flags.
const (
	defaultPlanCache   = 128
	defaultMaxInFlight = 64
	defaultQueueWait   = time.Second
	defaultMinCalls    = 4
	defaultMinDrift    = 0.1
)

// transportKind says how a fleet replica reaches its workers.
type transportKind int

const (
	localTransport transportKind = iota // dist.LocalTransport
	httpTransport                       // dist.HTTPTransport against Worker.Handler under httptest
)

// newReplica builds a fresh replica of the workload's fleet.
func newReplica(spec workload.Spec, kind transportKind, rec *recorder) (*replica, error) {
	r := &replica{
		rec:       rec,
		feedback:  &service.FeedbackPolicy{MinCalls: defaultMinCalls, MinDrift: defaultMinDrift},
		coalescer: &serve.Coalescer{},
		admission: serve.NewAdmission(defaultMaxInFlight, defaultQueueWait),
		calls:     &callLog{},
	}
	var err error
	if r.reg, err = timedWorld(spec.World, rec, r.calls); err != nil {
		return nil, err
	}
	r.cache = opt.NewPlanCacheWith(opt.Policy{Capacity: defaultPlanCache})
	r.reg.SubscribeEpochs(r.cache, r.cache.InvalidateService)
	r.rescache = newResultStore(r.reg)
	if spec.Workers == 0 {
		return r, nil
	}
	for i := 0; i < spec.Workers; i++ {
		wreg, err := timedWorld(spec.World, rec, r.calls)
		if err != nil {
			return nil, err
		}
		w := dist.NewWorker(wreg, opt.NewPlanCacheWith(opt.Policy{Capacity: defaultPlanCache}))
		w.Parallelism = opt.AutoParallelism
		w.BufferSize = exec.DefaultBufferSize
		w.Feedback = &service.FeedbackPolicy{MinCalls: defaultMinCalls, MinDrift: defaultMinDrift}
		w.ResultCache = newResultStore(wreg)
		var tr dist.Transport
		if kind == localTransport {
			tr = dist.LocalTransport{Worker: w, Label: "worker-" + strconv.Itoa(i)}
		} else {
			mux := http.NewServeMux()
			mux.Handle("/dist/", w.Handler())
			srv := httptest.NewServer(mux)
			r.closers = append(r.closers, srv.Close)
			tr = &dist.HTTPTransport{Base: srv.URL}
		}
		r.workers = append(r.workers, &timedTransport{Transport: tr, rec: rec})
	}
	r.membership = dist.NewMembership(r.workers)
	gossip := &dist.Coordinator{Registry: r.reg, Workers: r.workers, Membership: r.membership}
	r.closers = append(r.closers, gossip.GossipLoop(func(error) {}))
	if r.hosts, err = gossip.DiscoverHosts(context.Background()); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *replica) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
	r.closers = nil
}

func newResultStore(reg *service.Registry) *rescache.Store {
	s := rescache.New(rescache.Config{MaxEntries: rescache.DefaultMaxEntries, MaxBytes: rescache.DefaultMaxBytes})
	s.Bind(reg)
	return s
}

// timedWorld builds the named world with every service behind a
// timing decorator, observed as mdqserve observes them. The decorator
// must sit below the Observed wrapper the registry installs, so the
// services are re-registered in a registry of the benchmark's own and
// the world's pairwise join methods are copied over.
func timedWorld(world string, rec *recorder, calls *callLog) (*service.Registry, error) {
	orig, err := worldRegistry(world)
	if err != nil {
		return nil, err
	}
	reg := service.NewRegistry()
	svcs := orig.Services()
	for _, s := range svcs {
		if err := reg.Register(&timedService{Service: s, rec: rec, calls: calls}); err != nil {
			return nil, err
		}
	}
	// For two service nodes the chooser's answer is the registered
	// method or, failing that, a default that depends only on the two
	// signatures: setting it explicitly reproduces both.
	choose := orig.MethodChooser()
	node := func(s service.Service) *plan.Node {
		return &plan.Node{Kind: plan.Service, Atom: &cq.Atom{Service: s.Signature().Name, Sig: s.Signature()}}
	}
	for i, a := range svcs {
		for _, b := range svcs[i+1:] {
			if m := choose(node(a), node(b)); m != plan.DefaultMethodChooser(node(a), node(b)) {
				reg.SetJoinMethod(a.Signature().Name, b.Signature().Name, m)
			}
		}
	}
	reg.ObserveAll()
	return reg, nil
}

// timedService records a span and a sample around each invocation.
type timedService struct {
	service.Service
	rec   *recorder
	calls *callLog
}

func (t *timedService) Invoke(ctx context.Context, patternIdx int, req service.Request) (service.Response, error) {
	_, sp := t.rec.start(ctx, "service.invoke")
	resp, err := t.Service.Invoke(ctx, patternIdx, req)
	sp.end()
	if err == nil {
		t.calls.note(t.Signature().Name, req, resp)
	}
	return resp, err
}

// callLog keeps a few service invocations of the workload, so the
// result-cache timings run at the workload's own key and entry sizes.
type callLog struct {
	mu      sync.Mutex
	samples []callSample
}

type callSample struct {
	service, key string
	entry        exec.Entry
}

const maxCallSamples = 64

func (c *callLog) note(svc string, req service.Request, resp service.Response) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.samples) < maxCallSamples && req.Page == 0 {
		c.samples = append(c.samples, callSample{svc, req.Key(), exec.Entry{Rows: resp.Rows, Pages: 1, Exhausted: !resp.HasMore}})
	}
}

// timedTransport records a span around each coordinator→worker call.
type timedTransport struct {
	dist.Transport
	rec *recorder
}

func (t *timedTransport) Search(ctx context.Context, req dist.SearchRequest) (*dist.SearchResult, error) {
	ctx, sp := t.rec.start(ctx, "dist.transport.search")
	defer sp.end()
	return t.Transport.Search(ctx, req)
}

func (t *timedTransport) Sync(ctx context.Context, id string, bound float64) (float64, error) {
	ctx, sp := t.rec.start(ctx, "dist.transport.sync")
	defer sp.end()
	return t.Transport.Sync(ctx, id, bound)
}

func (t *timedTransport) ExecuteFragment(ctx context.Context, req dist.ExecuteRequest, sink func([]dist.WireTuple) error) (*dist.ExecuteResult, error) {
	ctx, sp := t.rec.start(ctx, "dist.transport.execute_fragment")
	defer sp.end()
	return t.Transport.ExecuteFragment(ctx, req, func(batch []dist.WireTuple) error {
		sp.count(int64(len(batch)))
		return sink(batch)
	})
}

// coordinator assembles a per-request coordinator, as mdqserve does.
func (r *replica) coordinator(m cost.Metric, mode card.CacheMode, k int) *dist.Coordinator {
	return &dist.Coordinator{
		Registry:        r.reg,
		Workers:         r.workers,
		Metric:          m,
		Mode:            mode,
		K:               k,
		RevalidateRatio: opt.DefaultRevalidateRatio,
		Hosts:           r.hosts,
		BufferSize:      exec.DefaultBufferSize,
		Membership:      r.membership,
		Retry:           dist.RetryPolicy{MaxRetries: dist.DefaultMaxRetries},
	}
}

// answer is what the replica returns for one request.
type answer struct {
	rows  [][]string
	class string
	bytes int
}

// replicaRequest and replicaResponse are the wire shapes of POST
// /query, field for field as far as the benchmark's requests and the
// server's untraced responses use them.
type replicaRequest struct {
	Template string         `json:"template"`
	Bindings map[string]any `json:"bindings"`
	Metric   string         `json:"metric"`
	Cache    string         `json:"cache"`
	K        int            `json:"k"`
}

type replicaResponse struct {
	Plan           string            `json:"plan"`
	Cost           float64           `json:"cost"`
	Metric         string            `json:"metric"`
	Feasible       bool              `json:"feasible"`
	Cached         bool              `json:"cached"`
	TemplateHit    bool              `json:"template_hit,omitempty"`
	Revalidated    bool              `json:"revalidated,omitempty"`
	Stats          opt.Stats         `json:"stats"`
	Head           []string          `json:"head,omitempty"`
	Rows           [][]string        `json:"rows,omitempty"`
	Calls          map[string]int64  `json:"calls,omitempty"`
	Elapsed        float64           `json:"elapsed_seconds,omitempty"`
	FirstRowMillis float64           `json:"first_row_ms,omitempty"`
	Epochs         map[string]uint64 `json:"epochs,omitempty"`
}

// handle serves one request body the way mdqserve's instrumented
// /query handler does. req labels the request's spans.
func (r *replica) handle(ctx context.Context, req int, body []byte) (*answer, error) {
	ctx = withRequest(ctx, req)
	ctx, root := r.rec.start(ctx, "request")
	defer root.end()

	_, sp := r.rec.start(ctx, "serve.admission_wait")
	release, err := r.admission.Acquire(ctx)
	sp.end()
	if err != nil {
		return nil, err
	}
	defer release()

	_, sp = r.rec.start(ctx, "http.decode")
	var in replicaRequest
	err = json.NewDecoder(bytes.NewReader(body)).Decode(&in)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	if in.Metric == "" {
		in.Metric = "etm"
	}
	m, ok := cost.ByName(in.Metric)
	if !ok {
		return nil, fmt.Errorf("unknown metric %q", in.Metric)
	}
	mode, ok := card.ModeByName(in.Cache)
	if !ok {
		return nil, fmt.Errorf("unknown cache mode %q", in.Cache)
	}
	k := in.K
	if k == 0 {
		k = 10
	}

	_, sp = r.rec.start(ctx, "cq.parse_template")
	tpl, err := cq.ParseTemplate(in.Template)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("parsing template: %w", err)
	}

	_, sp = r.rec.start(ctx, "cq.bind_resolve")
	q, err := r.bindResolve(tpl, in.Bindings)
	sp.end()
	if err != nil {
		return nil, err
	}

	_, sp = r.rec.start(ctx, "cq.canonical_key")
	key := q.CanonicalKey() + "\x00" + m.Name() + "\x00" + strconv.Itoa(int(mode)) + "\x00" + strconv.Itoa(k)
	sp.end()

	cctx, csp := r.rec.start(ctx, "serve.coalesce")
	v, _, err := r.coalescer.Do(cctx, key, func() (any, error) { return r.runQuery(cctx, q, m, mode, k) })
	csp.end()
	if err != nil {
		return nil, err
	}
	resp := *(v.(*replicaResponse))

	_, sp = r.rec.start(ctx, "http.encode")
	var out bytes.Buffer
	err = json.NewEncoder(&out).Encode(&resp)
	sp.end()
	if err != nil {
		return nil, err
	}
	return &answer{rows: resp.Rows, class: cacheClass(resp.TemplateHit, resp.Revalidated, resp.Cached), bytes: out.Len()}, nil
}

// bindResolve converts the JSON bindings as mdqserve's bindValue
// does, binds the template and resolves it against the registry.
func (r *replica) bindResolve(tpl *cq.Template, bindings map[string]any) (*cq.Query, error) {
	values := make(map[string]schema.Value, len(bindings))
	for name, raw := range bindings {
		switch x := raw.(type) {
		case float64:
			values[name] = schema.N(x)
		case string:
			v := schema.S(x)
			for _, layout := range []string{"2006/01/02", "2006-01-02"} {
				if t, err := time.Parse(layout, x); err == nil {
					v = schema.D(t.Year(), t.Month(), t.Day())
					break
				}
			}
			values[name] = v
		default:
			return nil, fmt.Errorf("binding $%s: unsupported type %T", name, raw)
		}
	}
	q, err := tpl.Bind(values)
	if err != nil {
		return nil, fmt.Errorf("binding template: %w", err)
	}
	sch, err := r.reg.Schema()
	if err != nil {
		return nil, err
	}
	if err := q.Resolve(sch); err != nil {
		return nil, fmt.Errorf("resolving query: %w", err)
	}
	return q, nil
}

// runQuery is mdqserve's runQuery: one optimization through the
// template cache and one execution of the plan it chose.
func (r *replica) runQuery(ctx context.Context, q *cq.Query, m cost.Metric, mode card.CacheMode, k int) (*replicaResponse, error) {
	var res *opt.Result
	var err error
	if len(r.workers) > 0 {
		octx, sp := r.rec.start(ctx, "dist.optimize_template")
		res, err = r.coordinator(m, mode, k).OptimizeTemplate(octx, q)
		sp.end()
	} else {
		o := &opt.Optimizer{
			Metric:          m,
			Estimator:       card.Config{Mode: mode},
			K:               k,
			ChooseMethod:    r.reg.MethodChooser(),
			Parallelism:     opt.AutoParallelism,
			Cache:           r.cache,
			CacheSalt:       r.reg.CacheSalt(),
			Epochs:          r.reg,
			RevalidateRatio: opt.DefaultRevalidateRatio,
		}
		_, sp := r.rec.start(ctx, "opt.optimize_template")
		res, err = o.OptimizeTemplate(q)
		sp.end()
		if err == nil && res.TemplateHit {
			// The same interval once more, under the name that isolates
			// the hit path.
			sp.sibling("opt.template_hit", sp.duration())
		}
	}
	if err != nil {
		return nil, fmt.Errorf("optimizing: %w", err)
	}
	_, sp := r.rec.start(ctx, "plan.describe")
	desc := res.Best.Describe()
	sp.end()
	resp := &replicaResponse{
		Plan: desc, Cost: res.Cost, Metric: m.Name(), Feasible: res.Feasible,
		Cached: res.Cached, TemplateHit: res.TemplateHit, Revalidated: res.Revalidated, Stats: res.Stats,
	}

	var out *exec.Result
	var ectx context.Context
	if len(r.workers) > 0 {
		ectx, sp = r.rec.start(ctx, "dist.execute_plan")
		out, err = r.coordinator(m, mode, k).ExecutePlan(ectx, res.Best)
	} else {
		runner := &exec.Runner{Registry: r.reg, Cache: mode, K: k, Feedback: r.feedback, BufferSize: exec.DefaultBufferSize, ResultCache: r.rescache}
		ectx, sp = r.rec.start(ctx, "exec.run")
		out, err = runner.Run(ectx, res.Best)
	}
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("executing: %w", err)
	}
	sp.count(int64(len(out.Rows)))
	sp.sibling("exec.first_row", out.FirstRow) // measured by the runner itself

	_, sp = r.rec.start(ctx, "http.encode")
	for _, v := range out.Head {
		resp.Head = append(resp.Head, string(v))
	}
	for _, row := range out.Rows {
		resp.Rows = append(resp.Rows, renderRow(row))
	}
	resp.Calls = out.Stats.Calls
	resp.Elapsed = out.Elapsed.Seconds()
	resp.FirstRowMillis = float64(out.FirstRow) / float64(time.Millisecond)
	resp.Epochs = r.reg.Epochs()
	sp.end()
	return resp, nil
}
