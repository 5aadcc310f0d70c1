package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"mdq/internal/dist"
	"mdq/internal/opt"
	"mdq/internal/serve"
	"mdq/internal/simweb"
)

// travelTemplate is the three-atom travel query the e2e and dist
// differentials use, with the hotel category as the template parameter.
const travelTemplate = `
q(Conf, City, Hotel, HPrice, FPrice) :-
    flight('Milano', City, Start, End, StartTime, EndTime, FPrice),
    hotel(Hotel, City, $cat, Start, End, HPrice),
    conf('DB', Conf, Start, End, City),
    FPrice + HPrice < 2000 {0.01}.`

var travelCategories = []string{"luxury", "standard", "budget", "hostel"}

// travelServer is one travel-world serving surface built through New,
// single-process or over two in-process workers, plus the count of
// /query posts the test has sent it.
type travelServer struct {
	*httptest.Server
	sent    int
	engine  *Engine
	workers []*dist.Worker
}

// newTravelServer builds the surface; cacheFile, when set, is loaded
// into the engine's plan cache first, as mdqserve -cache-file does.
func newTravelServer(t *testing.T, fleet bool, cacheFile string) *travelServer {
	t.Helper()
	reg := simweb.NewTravelWorld(simweb.TravelOptions{}).Registry
	e := &Engine{Registry: reg, Cache: opt.NewPlanCache(16), Parallelism: 1}
	reg.SubscribeEpochs(e.Cache, e.Cache.InvalidateService)
	if cacheFile != "" {
		if _, err := e.Cache.LoadFile(cacheFile, reg); err != nil {
			t.Fatal(err)
		}
	}
	out := &travelServer{engine: e}
	if fleet {
		for i := 1; i <= 2; i++ {
			w := dist.NewWorker(simweb.NewTravelWorld(simweb.TravelOptions{}).Registry, opt.NewPlanCache(16))
			w.Parallelism = 1
			out.workers = append(out.workers, w)
			e.Workers = append(e.Workers, dist.LocalTransport{Worker: w, Label: "w" + strconv.Itoa(i)})
		}
	}
	srv := New(http.NewServeMux(), Config{Engine: e, Coalesce: true, MaxInFlight: 8, QueueWait: time.Second, SlowlogCap: 16})
	t.Cleanup(srv.Close)
	out.Server = httptest.NewServer(srv)
	t.Cleanup(out.Server.Close)
	return out
}

// queryBody is the subset of a /query reply the handler tests read.
type queryBody struct {
	Head           []string   `json:"head"`
	Rows           [][]string `json:"rows"`
	FirstRowMillis float64    `json:"first_row_ms"`
	Error          string     `json:"error"`
	BudgetExceeded bool       `json:"budget_exceeded"`
}

// query posts one travel-template /query with extra fields merged in.
func (ts *travelServer) query(t *testing.T, cat string, extra map[string]any) (int, queryBody) {
	t.Helper()
	req := map[string]any{"template": travelTemplate, "bindings": map[string]any{"cat": cat}, "k": 5}
	for k, v := range extra {
		req[k] = v
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ts.sent++
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out queryBody
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding /query reply: %v", err)
	}
	return resp.StatusCode, out
}

// metricSum adds up every sample of a metric family whose label set
// contains match.
func (ts *travelServer) metricSum(t *testing.T, family, match string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	sum := 0.0
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, family+"{") || !strings.Contains(line, match) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestHandlerLocalAndFleet drives the real /query handler under
// httptest, once single-process and once over two LocalTransport
// workers built through the same constructor: both modes answer every
// binding identically, budget trips come back as typed 504s and are
// counted by reason, every request sent is counted once, and the
// slowlog agrees with the response on first_row_ms.
func TestHandlerLocalAndFleet(t *testing.T) {
	answers := map[bool]map[string]queryBody{}
	for _, fleet := range []bool{false, true} {
		t.Run(fmt.Sprintf("fleet=%v", fleet), func(t *testing.T) {
			ts := newTravelServer(t, fleet, "")
			answers[fleet] = map[string]queryBody{}
			var last queryBody
			for _, cat := range travelCategories {
				status, body := ts.query(t, cat, nil)
				if status != http.StatusOK || len(body.Rows) == 0 {
					t.Fatalf("%s: status %d, %d rows (%s)", cat, status, len(body.Rows), body.Error)
				}
				answers[fleet][cat], last = body, body
			}

			// The newest slowlog record is the last answered query.
			resp, err := http.Get(ts.URL + "/slowlog")
			if err != nil {
				t.Fatal(err)
			}
			var records []serve.RequestRecord
			err = json.NewDecoder(resp.Body).Decode(&records)
			resp.Body.Close()
			if err != nil || len(records) == 0 {
				t.Fatalf("slowlog: %d records, err %v", len(records), err)
			}
			if records[0].Endpoint != "/query" || last.FirstRowMillis <= 0 ||
				records[0].FirstRowMillis != last.FirstRowMillis {
				t.Fatalf("slowlog newest %s first_row_ms = %v, response said %v",
					records[0].Endpoint, records[0].FirstRowMillis, last.FirstRowMillis)
			}

			// A never-seen k forces a search no 1 ms deadline survives;
			// the template answers none of its rows within one call.
			for reason, extra := range map[string]map[string]any{
				"deadline": {"deadline_ms": 1, "k": 7},
				"calls":    {"max_calls": 1},
			} {
				status, body := ts.query(t, "luxury", extra)
				if status != http.StatusGatewayTimeout || !body.BudgetExceeded {
					t.Fatalf("%s budget: status %d budget_exceeded=%v (%s), want 504 with budget_exceeded",
						reason, status, body.BudgetExceeded, body.Error)
				}
				if n := ts.metricSum(t, "mdq_budget_exceeded_total", `reason="`+reason+`"`); n != 1 {
					t.Fatalf("mdq_budget_exceeded_total{reason=%q} = %v, want 1", reason, n)
				}
			}

			// /optimize shares the path: a plan, no answers, its own count.
			resp, err = http.Post(ts.URL+"/optimize", "application/json", strings.NewReader(
				`{"query": "q(Conf, Hotel) :- conf('DB', Conf, S, E, City), hotel(Hotel, City, 'luxury', S, E, P)."}`))
			if err != nil {
				t.Fatal(err)
			}
			var plan map[string]any
			err = json.NewDecoder(resp.Body).Decode(&plan)
			resp.Body.Close()
			if p, _ := plan["plan"].(string); err != nil || resp.StatusCode != http.StatusOK || p == "" || plan["rows"] != nil {
				t.Fatalf("/optimize: status %d, err %v, body %v", resp.StatusCode, err, plan)
			}

			if n := ts.metricSum(t, "mdq_requests_total", `endpoint="/query"`); n != float64(ts.sent) {
				t.Fatalf("server counted %v /query requests, test sent %d", n, ts.sent)
			}
		})
	}
	for _, cat := range travelCategories {
		local, fleet := answers[false][cat], answers[true][cat]
		if !reflect.DeepEqual(local.Head, fleet.Head) || !reflect.DeepEqual(local.Rows, fleet.Rows) {
			t.Fatalf("%s: local answered %v %v, fleet %v %v", cat, local.Head, local.Rows, fleet.Head, fleet.Rows)
		}
	}
}

// TestFleetFillsEngineCache: a coordinator's own plan cache learns what
// its fleet learned. After one fleet /query GET /cache lists the
// template entry the sharded search shipped to the workers (it used to
// stay empty for the life of the process), the probe counter tells the
// miss from the hit that follows, and a SaveFile → LoadFile round trip
// — mdqserve -cache-file across a restart — warms a fresh fleet so its
// first query is a probe hit and no worker ever searches.
func TestFleetFillsEngineCache(t *testing.T) {
	ts := newTravelServer(t, true, "")
	for _, want := range []string{"miss", "hit"} {
		if status, body := ts.query(t, "luxury", nil); status != http.StatusOK {
			t.Fatalf("probe %s: status %d (%s)", want, status, body.Error)
		}
		if n := ts.metricSum(t, "mdq_fleet_template_probes_total", `outcome="`+want+`"`); n != 1 {
			t.Fatalf("mdq_fleet_template_probes_total{outcome=%q} = %v, want 1", want, n)
		}
	}
	if n := ts.metricSum(t, "mdq_plan_cache_serves_total", `class="template"`); n != 1 {
		t.Fatalf("mdq_plan_cache_serves_total{class=template} = %v, want the probe hit", n)
	}

	resp, err := http.Get(ts.URL + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	var report cacheReport
	err = json.NewDecoder(resp.Body).Decode(&report)
	resp.Body.Close()
	if err != nil || len(report.Entries) != 1 || report.Entries[0].Kind != "template" {
		t.Fatalf("GET /cache on a coordinator: %+v (err %v), want the one template entry", report.Entries, err)
	}
	learned := ts.workers[0].ExportTemplates()
	if own := ts.engine.Cache.ExportTemplates(); len(learned) != 1 || len(own) != 1 ||
		!reflect.DeepEqual(own[0].Assignment, learned[0].Assignment) || !reflect.DeepEqual(own[0].Topology, learned[0].Topology) {
		t.Fatalf("coordinator cache holds %+v, the workers were shipped %+v", own, learned)
	}

	file := t.TempDir() + "/plans.json"
	if err := ts.engine.Cache.SaveFile(file); err != nil {
		t.Fatal(err)
	}
	fresh := newTravelServer(t, true, file)
	if status, body := fresh.query(t, "luxury", nil); status != http.StatusOK {
		t.Fatalf("restarted fleet: status %d (%s)", status, body.Error)
	}
	if hit, miss := fresh.metricSum(t, "mdq_fleet_template_probes_total", `outcome="hit"`),
		fresh.metricSum(t, "mdq_fleet_template_probes_total", `outcome="miss"`); hit != 1 || miss != 0 {
		t.Fatalf("restarted fleet's first query: %v probe hits, %v misses, want 1 and 0", hit, miss)
	}
	for i, w := range fresh.workers {
		if n := w.Cache().Stats().Searches; n != 0 {
			t.Fatalf("restarted fleet: worker %d ran %d searches, want 0", i, n)
		}
	}
}
