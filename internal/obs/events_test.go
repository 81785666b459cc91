package obs

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// Emit stamps the schema and a strictly increasing sequence; every other
// field is the caller's.
func TestJournalEmitStampsSchemaAndSeq(t *testing.T) {
	j := NewJournal()
	j.Emit(Event{Type: EvPromotion, Round: 1, Source: "src0"})
	j.Emit(Event{Type: EvRollback, Round: 2, Detail: "overlap below floor"})
	if j.Len() != 2 {
		t.Fatalf("len = %d, want 2", j.Len())
	}
	evs := j.Events()
	for i, e := range evs {
		if e.Schema != EventsSchema {
			t.Fatalf("event %d schema = %q, want %q", i, e.Schema, EventsSchema)
		}
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, i+1)
		}
	}
	if evs[0].Source != "src0" || evs[1].Detail != "overlap below floor" {
		t.Fatalf("caller fields not preserved: %+v", evs)
	}
	// Events returns a copy: mutating it must not reach the journal.
	evs[0].Source = "mutated"
	if j.Events()[0].Source != "src0" {
		t.Fatalf("Events leaked internal state")
	}
}

// A journal round-trips through JSONL: encode, then decode (which
// validates), same events.
func TestJournalEncodeDecodeRoundTrip(t *testing.T) {
	j := NewJournal()
	j.Emit(Event{Type: EvBreakerOpen, Round: 3, Source: "src1", Detail: "closed -> open"})
	j.Emit(Event{Type: EvOverlapDegrading, Round: 4,
		Metrics: map[string]float64{"overlap": 0.85, "margin": 0.05}})
	data, err := j.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if got := bytes.Count(data, []byte("\n")); got != 2 {
		t.Fatalf("JSONL lines = %d, want 2", got)
	}
	evs, err := DecodeJournal(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(evs) != 2 || evs[0].Type != EvBreakerOpen || evs[1].Metrics["overlap"] != 0.85 {
		t.Fatalf("round-trip mangled events: %+v", evs)
	}
}

// DecodeJournal pins the schema, the static type catalog, and seq
// continuity — each violation is an error naming the offending line.
func TestValidateJournalRejections(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"wrong schema",
			`{"schema":"csspgo-events/v0","type":"promotion","round":1,"seq":1}`,
			"schema"},
		{"uncataloged type",
			`{"schema":"csspgo-events/v1","type":"made_up_event","round":1,"seq":1}`,
			"uncataloged"},
		{"seq gap",
			`{"schema":"csspgo-events/v1","type":"promotion","round":1,"seq":1}` + "\n" +
				`{"schema":"csspgo-events/v1","type":"rollback","round":1,"seq":3}`,
			"seq"},
		{"seq not from 1",
			`{"schema":"csspgo-events/v1","type":"promotion","round":1,"seq":2}`,
			"seq"},
		{"not json", `{"schema":`, "JSON"},
	}
	for _, tc := range cases {
		_, err := DecodeJournal([]byte(tc.data + "\n"))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// Every cataloged type is lowercase snake case.
func TestEventCatalogNamesWellFormed(t *testing.T) {
	snake := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	for et := range eventCatalog {
		if !snake.MatchString(string(et)) {
			t.Errorf("cataloged type %q is not lowercase snake case", et)
		}
	}
}

// Normalize strips trace/span IDs: two runs whose only difference is the
// trace seed serialize byte-identically afterwards.
func TestJournalNormalizeByteIdentical(t *testing.T) {
	mk := func(traceID string) *Journal {
		j := NewJournal()
		j.Emit(Event{Type: EvPromotion, Round: 1, TraceID: traceID, SpanID: "00000000000000aa",
			Metrics: map[string]float64{"generation": 1}})
		j.Emit(Event{Type: EvRollback, Round: 2, TraceID: traceID, SpanID: "00000000000000ab"})
		return j
	}
	a := mk(DeriveTraceID("run", "a"))
	b := mk(DeriveTraceID("run", "b"))
	da, _ := a.Encode()
	db, _ := b.Encode()
	if bytes.Equal(da, db) {
		t.Fatalf("differently-seeded journals identical before Normalize; test premise broken")
	}
	a.Normalize()
	b.Normalize()
	da, _ = a.Encode()
	db, _ = b.Encode()
	if !bytes.Equal(da, db) {
		t.Fatalf("normalized journals differ:\n%s\nvs\n%s", da, db)
	}
	if bytes.Contains(da, []byte("trace_id")) || bytes.Contains(da, []byte("span_id")) {
		t.Fatalf("normalized journal still carries trace identity:\n%s", da)
	}
	// Normalized output still validates.
	if _, err := DecodeJournal(da); err != nil {
		t.Fatalf("normalized journal invalid: %v", err)
	}
}

// A nil journal is a no-op surface, like every other obs handle.
func TestJournalNilSafety(t *testing.T) {
	var j *Journal
	j.Emit(Event{Type: EvPromotion})
	j.Normalize()
	if j.Len() != 0 || j.Events() != nil {
		t.Fatalf("nil journal not inert")
	}
	if data, err := j.Encode(); err != nil || len(data) != 0 {
		t.Fatalf("nil journal encode = %q, %v", data, err)
	}
}
