package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mdq/internal/bounded"
)

// Event is one entry of the structured audit stream: a slow query, a
// membership transition, a dispatch retry, a budget trip. Events are
// totally ordered by Seq (assigned at publish under one lock), so
// consumers can correlate cause and effect across subsystems — a
// worker going suspect, the retries it caused, and the slow queries
// that resulted appear in publication order.
type Event struct {
	// Seq is the event's position in the stream (1-based, gapless
	// except across drops).
	Seq uint64 `json:"seq"`
	// Time is when the event was published.
	Time time.Time `json:"time"`
	// Type classifies the event ("slow_query", "membership", "retry",
	// "budget", …).
	Type string `json:"type"`
	// Fields carries the event payload as flat key→value pairs.
	Fields map[string]string `json:"fields,omitempty"`
	// Record carries the full request record of a "slow_query" event.
	Record *RequestRecord `json:"record,omitempty"`
}

// EventBus is a bounded, ordered, in-memory event stream — the
// audit-queue shape the slowlog alone lacked: one merged, sequenced
// feed of everything operationally notable. Publishing is O(1) under
// one short lock and never blocks the serving path; past capacity
// the oldest events are overwritten and counted as dropped, so slow
// consumers lose history, never throughput. The zero bus is not
// usable; build one with NewEventBus. A nil bus drops everything,
// so instrumented paths publish unconditionally.
type EventBus struct {
	// OnDrop, when set, is called with the number of events evicted
	// before a consumer could have seen them (mdqserve counts these
	// as mdq_events_dropped_total). Called under the bus lock; keep
	// it O(1).
	OnDrop func(n int)

	mu      sync.Mutex
	ring    *bounded.Ring[Event]
	seq     uint64
	dropped uint64
}

// NewEventBus builds a bus keeping the last cap events (cap ≤ 0
// means 256).
func NewEventBus(cap int) *EventBus {
	if cap <= 0 {
		cap = 256
	}
	return &EventBus{ring: bounded.NewRing[Event](cap)}
}

// Publish appends an event with the given type and payload fields.
// Nil-safe: a nil bus drops the event.
func (b *EventBus) Publish(typ string, fields map[string]string) {
	b.publish(Event{Type: typ, Fields: fields})
}

// PublishRecord appends a "slow_query" event carrying a full request
// record. Nil-safe.
func (b *EventBus) PublishRecord(rec RequestRecord) {
	b.publish(Event{Type: "slow_query", Record: &rec})
}

func (b *EventBus) publish(e Event) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.seq++
	e.Seq = b.seq
	e.Time = time.Now()
	if b.ring.Push(e) {
		// Overwrote the oldest buffered event: it is gone before any
		// future consumer can read it.
		b.dropped++
		if b.OnDrop != nil {
			b.OnDrop(1)
		}
	}
	b.mu.Unlock()
}

// Dropped returns the total number of events evicted unread.
func (b *EventBus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// Snapshot returns the buffered events with Seq > after, oldest
// first. after=0 returns everything buffered.
func (b *EventBus) Snapshot(after uint64) []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, 0, b.ring.Len())
	for _, e := range b.ring.OldestFirst() {
		if e.Seq > after {
			out = append(out, e)
		}
	}
	return out
}

// Handler serves GET /events as newline-delimited JSON, oldest
// buffered event first. ?after=N resumes past a previously seen
// sequence number, so a polling consumer reads each event once;
// events evicted before the consumer returned are reflected in the
// bus's drop counter, not silently skipped sequence numbers alone.
func (b *EventBus) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		var after uint64
		if s := r.URL.Query().Get("after"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "bad after", http.StatusBadRequest)
				return
			}
			after = v
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, e := range b.Snapshot(after) {
			if enc.Encode(e) != nil {
				return
			}
		}
	})
}
