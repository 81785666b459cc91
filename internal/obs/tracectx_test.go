package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// ctxTestClock returns a deterministic monotonic clock for trace tests.
func ctxTestClock() func() time.Time {
	t := time.Unix(0, 0)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

// parse is ParseChromeTrace for inputs the test itself exported.
func parse(t *testing.T, data []byte) *ChromeTrace {
	t.Helper()
	ct, err := ParseChromeTrace(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return ct
}

// A valid context renders as a version-00 traceparent and parses back.
func TestTraceparentRoundTrip(t *testing.T) {
	c := SpanContext{TraceID: DeriveTraceID("round", "trip"), SpanID: "00000000000000ab"}
	if !c.Valid() {
		t.Fatalf("context %+v not valid", c)
	}
	h := c.Traceparent()
	if !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("traceparent = %q", h)
	}
	got, ok := ParseTraceparent(h)
	if !ok || got != c {
		t.Fatalf("parse(%q) = %+v, %v", h, got, ok)
	}
	// Leading/trailing whitespace is tolerated (header values often carry it).
	if got, ok := ParseTraceparent(" " + h + " "); !ok || got != c {
		t.Fatalf("whitespace-wrapped parse failed")
	}
}

// Malformed traceparents parse to (zero, false) — propagation is
// best-effort, a bad header must never fail a request.
func TestTraceparentMalformed(t *testing.T) {
	tid := DeriveTraceID("malformed")
	bad := []string{
		"",
		"garbage",
		"01-" + tid + "-00000000000000ab-01", // wrong version
		"00-" + tid[:31] + "-00000000000000ab-01",                // short trace ID
		"00-" + tid + "-00000000000000a-01",                      // short span ID
		"00-" + strings.Repeat("0", 32) + "-00000000000000ab-01", // all-zero trace ID
		"00-" + tid + "-" + strings.Repeat("0", 16) + "-01",      // all-zero span ID
		"00-" + strings.ToUpper(tid) + "-00000000000000ab-01",    // uppercase hex
		"00-" + tid + "-00000000000000ab-0g",                     // bad flags
		"00-" + tid + "-00000000000000ab",                        // missing flags
	}
	for _, h := range bad {
		if c, ok := ParseTraceparent(h); ok || c.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted", h)
		}
	}
	// An invalid context renders as "" so callers can set unconditionally.
	if got := (SpanContext{}).Traceparent(); got != "" {
		t.Fatalf("zero context traceparent = %q, want empty", got)
	}
}

// DeriveTraceID is deterministic in its parts and distinct across them.
func TestDeriveTraceIDDeterministic(t *testing.T) {
	a := DeriveTraceID("serve", "app", "1")
	if a != DeriveTraceID("serve", "app", "1") {
		t.Fatalf("same parts, different IDs")
	}
	if !isHex(a, 32) {
		t.Fatalf("derived ID %q not 32-hex", a)
	}
	distinct := map[string]bool{a: true}
	for _, parts := range [][]string{
		{"serve", "app", "2"}, {"serve", "app"}, {"fleet", "1"}, {"serve", "app1", ""},
	} {
		id := DeriveTraceID(parts...)
		if distinct[id] {
			t.Fatalf("parts %v collided", parts)
		}
		distinct[id] = true
	}
	// The part separator prevents concatenation collisions.
	if DeriveTraceID("ab", "c") == DeriveTraceID("a", "bc") {
		t.Fatalf("part-boundary collision")
	}
}

// Spans fetched under a remote parent adopt the remote trace ID and parent
// link, so two per-process exports stitch into one causally-linked trace.
func TestStitchCrossProcessLinks(t *testing.T) {
	// Process 1: the "aggregator" trace.
	fleet := newTraceWithClock(ctxTestClock())
	fleet.SetTraceID(DeriveTraceID("stitch", "fleet"))
	round := fleet.Span("fleet.round")
	poll := round.Span("fleet.poll")
	remote := poll.Context()

	// Process 2: the "instance" trace; the handler span adopts the remote
	// poll context, a refresh span nests under the handler.
	inst := newTraceWithClock(ctxTestClock())
	inst.SetTraceID(DeriveTraceID("stitch", "inst"))
	h := inst.Root().SpanRemote("serve.handle_profile", remote)
	r := h.Span("serve.refresh")
	r.End()
	h.End()
	poll.End()
	round.End()

	var fb, ib bytes.Buffer
	if err := fleet.WriteChrome(&fb); err != nil {
		t.Fatalf("fleet export: %v", err)
	}
	if err := inst.WriteChrome(&ib); err != nil {
		t.Fatalf("instance export: %v", err)
	}
	merged := StitchChromeTraces([]*ChromeTrace{parse(t, fb.Bytes()), parse(t, ib.Bytes())})
	st, err := merged.Links(1)
	if err != nil {
		t.Fatalf("validate: %v\n%+v", err, merged)
	}
	if st.Spans != 4 || st.Links != 3 {
		t.Fatalf("stats = %+v, want 4 spans / 3 links", st)
	}
	// handle_profile -> poll crosses processes; refresh -> handle_profile and
	// poll -> round do not.
	if st.CrossProcessLinks != 1 {
		t.Fatalf("cross-process links = %d, want 1", st.CrossProcessLinks)
	}
	// Ancestry resolves across the process boundary: the instance-side spans
	// have the aggregator round as an ancestor.
	if err := merged.RequireAncestor("serve.handle_profile", "fleet.round"); err != nil {
		t.Fatalf("handle ancestry: %v", err)
	}
	if err := merged.RequireAncestor("serve.refresh", "fleet.round"); err != nil {
		t.Fatalf("refresh ancestry: %v", err)
	}
	if names := merged.SpanNames(); len(names) != 4 || names[0] != "fleet.poll" {
		t.Fatalf("span names = %v", names)
	}
	// The merged document encodes and parses back to the same links.
	data, err := merged.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if again, err := parse(t, data).Links(1); err != nil || again != st {
		t.Fatalf("re-parsed stitch: %+v, %v; want %+v", again, err, st)
	}
}

// A stitched trace whose remote parents are missing (one process's export
// was dropped) fails validation: broken parent links are errors.
func TestStitchBrokenParentLinkRejected(t *testing.T) {
	fleet := newTraceWithClock(ctxTestClock())
	fleet.SetTraceID(DeriveTraceID("broken", "fleet"))
	poll := fleet.Span("fleet.poll")

	inst := newTraceWithClock(ctxTestClock())
	inst.SetTraceID(DeriveTraceID("broken", "inst"))
	h := inst.Root().SpanRemote("serve.handle_profile", poll.Context())
	h.End()
	poll.End()

	var ib bytes.Buffer
	if err := inst.WriteChrome(&ib); err != nil {
		t.Fatalf("export: %v", err)
	}
	// Stitch WITHOUT the fleet export: the handler's parent cannot resolve.
	merged := StitchChromeTraces([]*ChromeTrace{parse(t, ib.Bytes())})
	if _, err := merged.Links(0); err == nil ||
		!strings.Contains(err.Error(), "broken parent link") {
		t.Fatalf("validator err = %v, want broken parent link", err)
	}
	if err := merged.RequireAncestor("serve.handle_profile", "fleet.round"); err == nil {
		t.Fatalf("RequireAncestor accepted a broken chain")
	}
}

// Two exports sharing a trace ID collide on span IDs — the validator calls
// that out rather than silently merging two identities.
func TestStitchDuplicateSpanIDRejected(t *testing.T) {
	mk := func() *ChromeTrace {
		tr := newTraceWithClock(ctxTestClock())
		tr.SetTraceID(DeriveTraceID("dup"))
		tr.Span("work").End()
		var b bytes.Buffer
		if err := tr.WriteChrome(&b); err != nil {
			t.Fatalf("export: %v", err)
		}
		return parse(t, b.Bytes())
	}
	merged := StitchChromeTraces([]*ChromeTrace{mk(), mk()})
	if _, err := merged.Links(0); err == nil ||
		!strings.Contains(err.Error(), "duplicate span id") {
		t.Fatalf("validator err = %v, want duplicate span id", err)
	}
}

// The cross-link floor is enforced, and RequireAncestor refuses a vacuous
// pass when no span carries the required name.
func TestStitchFloorsAndVacuousAncestor(t *testing.T) {
	tr := newTraceWithClock(ctxTestClock())
	tr.SetTraceID(DeriveTraceID("floor"))
	sp := tr.Span("solo")
	sp.Span("child").End()
	sp.End()
	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatalf("export: %v", err)
	}
	ct := parse(t, b.Bytes())
	if _, err := ct.Links(0); err != nil {
		t.Fatalf("single-process trace invalid: %v", err)
	}
	if _, err := ct.Links(1); err == nil ||
		!strings.Contains(err.Error(), "cross-process") {
		t.Fatalf("cross-link floor not enforced: %v", err)
	}
	if err := ct.RequireAncestor("absent", "solo"); err == nil ||
		!strings.Contains(err.Error(), "no spans named") {
		t.Fatalf("vacuous ancestor check passed: %v", err)
	}
	if err := ct.RequireAncestor("child", "solo"); err != nil {
		t.Fatalf("direct ancestry rejected: %v", err)
	}
	// The parser rejects non-JSON inputs outright.
	if _, err := ParseChromeTrace([]byte("not json")); err == nil {
		t.Fatalf("parse accepted garbage")
	}
}

// An invalid remote context degrades SpanRemote to a plain local child: the
// span still records, inside the local trace.
func TestSpanRemoteInvalidContextDegrades(t *testing.T) {
	tr := newTraceWithClock(ctxTestClock())
	tid := DeriveTraceID("degrade")
	tr.SetTraceID(tid)
	sp := tr.Root().SpanRemote("serve.refresh", SpanContext{})
	sp.End()
	if got := sp.Context().TraceID; got != tid {
		t.Fatalf("degraded span trace = %s, want local %s", got, tid)
	}
	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatalf("export: %v", err)
	}
	if _, err := parse(t, b.Bytes()).Links(0); err != nil {
		t.Fatalf("degraded span breaks validation: %v", err)
	}
}
