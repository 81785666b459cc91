package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
)

// The structured event journal: typed, schema-versioned records of the
// control plane's discrete state changes — promotions, rollbacks, breaker
// transitions, policy exclusions — each stamped with deterministic logical
// clocks (round and sequence numbers, never wall time) and the trace/span
// IDs of the operation that triggered it. Journals from two identical runs
// are byte-identical after Normalize, the same determinism bar the run
// reports and time-series store meet.

// EventsSchema identifies the journal format. Bump on incompatible changes;
// DecodeJournal pins it.
const EventsSchema = "csspgo-events/v1"

// EventType names one kind of control-plane event. Every emitted type must
// be declared in the static catalog below: Journal.Emit panics on any other,
// and DecodeJournal rejects it on read.
type EventType string

// The static event catalog.
const (
	// EvPromotion: the promotion gate accepted a merged candidate.
	EvPromotion EventType = "promotion"
	// EvRollback: the gate rejected a candidate; last-good was retained.
	EvRollback EventType = "rollback"
	// EvBreakerOpen / EvBreakerHalfOpen / EvBreakerClose: a per-source
	// circuit breaker transitioned.
	EvBreakerOpen     EventType = "breaker_open"
	EvBreakerHalfOpen EventType = "breaker_half_open"
	EvBreakerClose    EventType = "breaker_close"
	// EvFreshnessExclusion: a source was excluded for a stagnant generation.
	EvFreshnessExclusion EventType = "freshness_exclusion"
	// EvQuotaClamp: a source's contribution was scaled down to the quota.
	EvQuotaClamp EventType = "quota_clamp"
	// EvDecodeSkip: the lenient decoder discarded records from a payload.
	EvDecodeSkip EventType = "decode_skip"
	// EvOverlapDegrading: the EWMA overlap-trend detector observed the
	// promotion-gate margin eroding across rounds.
	EvOverlapDegrading EventType = "overlap_degrading"
	// EvOverheadBudgetBreach: a metered collection spent more of the run on
	// profiling machinery than the configured overhead budget allows.
	EvOverheadBudgetBreach EventType = "overhead_budget_breach"
	// EvConfidenceLow: a profile's hot set contains functions whose sample
	// counts are below the relative-error bound (hot-uncertain).
	EvConfidenceLow EventType = "confidence_low"
)

// eventCatalog is the static event catalog as a set.
var eventCatalog = map[EventType]bool{
	EvPromotion:            true,
	EvRollback:             true,
	EvBreakerOpen:          true,
	EvBreakerHalfOpen:      true,
	EvBreakerClose:         true,
	EvFreshnessExclusion:   true,
	EvQuotaClamp:           true,
	EvDecodeSkip:           true,
	EvOverlapDegrading:     true,
	EvOverheadBudgetBreach: true,
	EvConfidenceLow:        true,
}

// Event is one journal record. Field order is the serialization order;
// Metrics maps marshal with sorted keys, so encoding is deterministic.
type Event struct {
	Schema string    `json:"schema"`
	Type   EventType `json:"type"`
	// Round and Seq are the deterministic logical clocks: the aggregation
	// round (or serve generation) the event belongs to, and the journal's
	// global emission sequence.
	Round uint64 `json:"round"`
	Seq   uint64 `json:"seq"`
	// Source names the fleet source (or instance) the event concerns.
	Source string `json:"source,omitempty"`
	// TraceID/SpanID tie the event to the span that triggered it; Normalize
	// strips them (they are deterministic only for seeded traces).
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
	// Metrics carries the triggering metric values (overlap, quota, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Detail is a short human-readable elaboration.
	Detail string `json:"detail,omitempty"`
}

// Journal is an append-only in-memory event log. All methods are nil-safe
// and safe for concurrent use; emission order is the serialization order,
// so callers that need determinism must emit in a deterministic order (the
// fleet aggregator drains per-source events in fleet order).
type Journal struct {
	mu     sync.Mutex
	events []Event
	seq    uint64
}

// NewJournal returns an empty journal.
func NewJournal() *Journal { return &Journal{} }

// Emit appends one event, stamping the schema and the next sequence number.
// The caller fills every other field. An uncataloged event type is a
// programming error: Emit panics, naming it.
func (j *Journal) Emit(e Event) {
	if j == nil {
		return
	}
	if !eventCatalog[e.Type] {
		panic(fmt.Sprintf("obs: event type %q is not in the event catalog", e.Type))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	e.Schema = EventsSchema
	e.Seq = j.seq
	j.events = append(j.events, e)
}

// Len returns the number of recorded events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.events)
}

// Events returns a copy of the journal, in emission order.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, len(j.events))
	copy(out, j.events)
	return out
}

// Normalize strips the nondeterministic-in-general fields (trace and span
// IDs) from every event, so journals from two identical runs are
// byte-identical regardless of how their traces were seeded.
func (j *Journal) Normalize() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := range j.events {
		j.events[i].TraceID = ""
		j.events[i].SpanID = ""
	}
}

// Encode renders the journal as JSON Lines, one event per line, in emission
// order. Encoding is deterministic: struct field order plus sorted metric
// keys.
func (j *Journal) Encode() ([]byte, error) {
	var buf bytes.Buffer
	for _, e := range j.Events() {
		line, err := json.Marshal(e)
		if err != nil {
			return nil, err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// DecodeJournal parses a JSONL journal and validates it against the v1
// schema as it goes: every line parses, pins the schema string, carries a
// cataloged event type, and the sequence numbers run 1, 2, 3, ... Blank
// lines are skipped; an empty journal is valid and has no events.
func DecodeJournal(data []byte) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("obs: journal line %d: not valid JSON: %w", line, err)
		}
		if e.Schema != EventsSchema {
			return nil, fmt.Errorf("obs: journal line %d: schema %q, want %q", line, e.Schema, EventsSchema)
		}
		if !eventCatalog[e.Type] {
			return nil, fmt.Errorf("obs: journal line %d: uncataloged event type %q", line, e.Type)
		}
		if want := uint64(len(out) + 1); e.Seq != want {
			return nil, fmt.Errorf("obs: journal line %d: seq %d, want %d", line, e.Seq, want)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
