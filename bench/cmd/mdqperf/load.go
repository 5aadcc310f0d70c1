package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"mdq/bench/workload"
)

// driver sends a workload's requests to a fleet over loopback HTTP
// and checks every answer.
type driver struct {
	client *http.Client
	url    string
	w      *workload.Workload
	bodies [][]byte
	oracle *oracle
	// sent counts every request issued, warm-up included: the number
	// the server's own request counter must agree with.
	sent atomic.Int64
}

// newDriver prepares the request bodies and a client holding at most
// conns connections, the closed loop's concurrency.
func newDriver(base string, w *workload.Workload, o *oracle, conns int) *driver {
	d := &driver{
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		url:    base + "/query",
		w:      w,
		oracle: o,
		bodies: make([][]byte, len(w.Requests)),
	}
	for i, r := range w.Requests {
		d.bodies[i] = r.Body()
	}
	return d
}

// close drops the driver's idle connections.
func (d *driver) close() { d.client.CloseIdleConnections() }

// reply is the outcome of one request.
type reply struct {
	latency   time.Duration // send → body fully decoded
	firstByte time.Duration // send → first response byte
	status    int           // 0 on a transport error
	// failure says why the request counts as failed; "" when it was
	// answered 200 with rows the oracle accepts.
	failure string
	rows    [][]string
	// class is the plan-cache class the response's flags spell, as
	// mdqserve's cacheClass names them.
	class    string
	epochSum uint64
	bytes    int
}

// queryReply is the part of mdqserve's /query response the benchmark
// reads.
type queryReply struct {
	Error       string            `json:"error"`
	Rows        [][]string        `json:"rows"`
	Cached      bool              `json:"cached"`
	TemplateHit bool              `json:"template_hit"`
	Revalidated bool              `json:"revalidated"`
	Epochs      map[string]uint64 `json:"epochs"`
}

// cacheClass names how the optimizer answered, as mdqserve's
// accounting does.
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

// do sends request i of the list (cycling past its end) and checks
// the answer.
func (d *driver) do(ctx context.Context, i int) reply {
	i %= len(d.bodies)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url, bytes.NewReader(d.bodies[i]))
	if err != nil {
		return reply{failure: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	var r reply
	start := time.Now()
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotFirstResponseByte: func() { r.firstByte = time.Since(start) },
	}))
	d.sent.Add(1)
	resp, err := d.client.Do(req)
	if err != nil {
		r.failure = "transport: " + err.Error()
		return r
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.status = resp.StatusCode
	r.bytes = len(body)
	var qr queryReply
	if err == nil {
		err = json.Unmarshal(body, &qr)
	}
	r.latency = time.Since(start)
	switch {
	case err != nil:
		r.failure = "reading the response: " + err.Error()
	case r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable:
		r.failure = fmt.Sprintf("shed with %d", r.status)
	case r.status != http.StatusOK:
		r.failure = fmt.Sprintf("status %d: %s", r.status, qr.Error)
	default:
		r.failure = d.oracle.check(d.w.Requests[i], qr.Rows)
	}
	r.rows = qr.Rows
	r.class = cacheClass(qr.TemplateHit, qr.Revalidated, qr.Cached)
	for _, e := range qr.Epochs {
		r.epochSum += e
	}
	return r
}

// window is what a closed loop measured.
type window struct {
	elapsed           time.Duration
	latencies         []float64 // ms, correct answers only
	firstBytes        []float64 // ms, correct answers only
	attempted, failed int
	firstFailure      string
	bytes             int64 // of correct responses
	// epochFirst and epochLast are the lowest and highest sum of
	// statistics epochs any response carried: their difference is how
	// many profile refreshes landed in the window.
	epochFirst, epochLast uint64
	// replies is kept only when the caller asks for it (the traced
	// prefix compares them against the replica's).
	replies []reply
}

// loop runs a closed loop of clients over requests from..to of the
// list, cycling; it stops issuing at the deadline (zero: never) or
// when the range is exhausted, and returns once every request in
// flight has completed. Each client sends its next request only after
// its previous one was answered.
func (d *driver) loop(ctx context.Context, clients, from, to int, deadline time.Time, keep bool) window {
	var (
		next atomic.Int64
		mu   sync.Mutex
		w    window
		wg   sync.WaitGroup
	)
	next.Store(int64(from))
	w.epochFirst = math.MaxUint64
	if keep {
		w.replies = make([]reply, to-from)
	}
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= to {
					return
				}
				r := d.do(ctx, i)
				mu.Lock()
				w.attempted++
				if r.failure != "" {
					w.failed++
					if w.firstFailure == "" {
						req := d.w.Requests[i%len(d.bodies)]
						w.firstFailure = fmt.Sprintf("request %d (%s=%s, metric=%q, k=%d): %s",
							i, req.Param, req.Value, req.Metric, req.K, r.failure)
					}
				} else {
					w.latencies = append(w.latencies, ms(r.latency))
					w.firstBytes = append(w.firstBytes, ms(r.firstByte))
					w.bytes += int64(r.bytes)
					w.epochFirst = min(w.epochFirst, r.epochSum)
					w.epochLast = max(w.epochLast, r.epochSum)
				}
				if keep {
					w.replies[i-from] = r
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	return w
}

// ok is the number of correct answers.
func (w *window) ok() int { return w.attempted - w.failed }

// farEnd is an index no time-bounded window reaches.
const farEnd = 1 << 40
