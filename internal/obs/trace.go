// Package obs is the pipeline's observability layer: a span-based tracer
// covering every stage from parse to codegen (exported as Chrome
// trace-event JSON), a unified metrics registry the per-subsystem Stats
// structs publish into, a deterministic machine-readable run report that
// `csspgo report` pretty-prints and diffs, and the one artifact contract
// every file it writes meets (artifact.go).
//
// Everything is nil-safe: a nil *Trace, *Span, *Registry or metric handle
// turns every method into a no-op, so pipeline code instruments
// unconditionally and pays nothing when observability is off.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values must marshal to JSON
// deterministically (strings, integers, floats, bools).
type Attr struct {
	Key   string
	Value any
}

// A builds an Attr.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Trace is one run's span tree. All span operations are safe for concurrent
// use (shard workers open spans on their own goroutines).
type Trace struct {
	mu       sync.Mutex
	now      func() time.Time
	epoch    time.Time
	root     *Span
	traceID  string // local 32-hex trace ID; spans inherit it unless adopted
	idBase   uint64 // hash of traceID, the span-ID derivation base
	nextSpan uint64 // per-trace span sequence (logical, never wall time)
}

// NewTrace starts a trace whose epoch is now.
func NewTrace() *Trace { return newTraceWithClock(time.Now) }

// newTraceWithClock starts a trace on an injected clock (deterministic
// tests).
func newTraceWithClock(now func() time.Time) *Trace {
	t := &Trace{now: now, epoch: now()}
	t.setTraceID(DeriveTraceID("csspgo"))
	t.root = &Span{t: t, name: ""}
	t.root.sc.TraceID = t.traceID
	return t
}

// SetTraceID fixes the trace's local ID (a 32-hex-digit string, e.g. from
// DeriveTraceID). Call it before opening spans: spans already minted keep
// the IDs they were born with. Invalid IDs are ignored.
func (t *Trace) SetTraceID(id string) {
	if t == nil || !isHex(id, 32) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setTraceID(id)
	t.root.sc.TraceID = id
}

func (t *Trace) setTraceID(id string) {
	t.traceID = id
	t.idBase = fnv1a64(id)
}

// Span is one timed region of the pipeline. End it exactly once; nested
// spans are opened with Span.Span.
type Span struct {
	t        *Trace
	name     string
	attrs    []Attr
	tid      int // Chrome trace lane; 0 = main, workers get their own
	start    time.Duration
	dur      time.Duration
	ended    bool
	children []*Span
	sc       SpanContext // this span's (trace ID, span ID)
	parentID string      // parent span ID ("" at the trace root)
}

// Span opens a top-level span.
func (t *Trace) Span(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.root.Span(name, attrs...)
}

// Root returns the implicit root span (never exported itself): the parent
// to hand to a subsystem that should open its spans at the top level.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Span opens a child span. A nil receiver yields a nil (no-op) span, so
// callers never need to guard.
func (s *Span) Span(name string, attrs ...Attr) *Span {
	return s.child(name, -1, attrs)
}

// WorkerSpan opens a child span on a worker's own trace lane, so parallel
// shard workers render side by side in chrome://tracing.
func (s *Span) WorkerSpan(name string, worker int, attrs ...Attr) *Span {
	return s.child(name, worker+1, attrs)
}

// SpanRemote opens a child span adopted into a remote trace: the span (and
// its descendants) carry the remote trace ID, and its parent link points at
// the remote span — the serve daemon uses this to attribute handler and
// refresh spans to the fleet aggregator's round. An invalid remote context
// degrades to a plain local child span.
func (s *Span) SpanRemote(name string, remote SpanContext, attrs ...Attr) *Span {
	c := s.child(name, -1, attrs)
	if c == nil || !remote.Valid() {
		return c
	}
	t := s.t
	t.mu.Lock()
	c.sc.TraceID = remote.TraceID
	c.parentID = remote.SpanID
	t.mu.Unlock()
	return c
}

// Context returns the span's (trace ID, span ID) — the value to propagate
// downstream as a traceparent header. Zero for a nil span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.sc
}

func (s *Span) child(name string, tid int, attrs []Attr) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextSpan++
	c := &Span{t: t, name: name, attrs: attrs, tid: s.tid, start: t.now().Sub(t.epoch)}
	c.sc = SpanContext{TraceID: s.sc.TraceID, SpanID: spanIDFrom(t.idBase, t.nextSpan)}
	c.parentID = s.sc.SpanID // "" when the parent is the trace root
	if tid >= 0 {
		c.tid = tid
	}
	s.children = append(s.children, c)
	return c
}

// SetAttr annotates an open span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End closes the span. Ending twice keeps the first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if !s.ended {
		s.dur = s.t.now().Sub(s.t.epoch) - s.start
		s.ended = true
	}
}

// Name returns the span's name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// snapshotLocked deep-copies the span tree under t.mu, closing still-open
// spans at the current clock reading, and sorting siblings by (start, name)
// so concurrently appended worker spans export in a stable order.
func (t *Trace) snapshot() *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now().Sub(t.epoch)
	var cp func(s *Span) *Span
	cp = func(s *Span) *Span {
		out := &Span{name: s.name, attrs: append([]Attr(nil), s.attrs...),
			tid: s.tid, start: s.start, dur: s.dur, ended: s.ended,
			sc: s.sc, parentID: s.parentID}
		if !s.ended {
			out.dur = now - s.start
		}
		for _, c := range s.children {
			out.children = append(out.children, cp(c))
		}
		sort.SliceStable(out.children, func(i, j int) bool {
			a, b := out.children[i], out.children[j]
			if a.start != b.start {
				return a.start < b.start
			}
			return a.name < b.name
		})
		return out
	}
	return cp(t.root)
}

// flatSpan is one exported span with its slash-joined path.
type flatSpan struct {
	path string
	s    *Span
}

func flatten(root *Span) []flatSpan {
	var out []flatSpan
	var walk func(prefix string, s *Span)
	walk = func(prefix string, s *Span) {
		for _, c := range s.children {
			path := c.name
			if prefix != "" {
				path = prefix + "/" + c.name
			}
			out = append(out, flatSpan{path: path, s: c})
			walk(path, c)
		}
	}
	walk("", root)
	return out
}

// chromeEvent is one Chrome trace-event ("X" = complete event). Timestamps
// and durations are microseconds, per the trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is a Chrome trace-event document: what WriteChrome exports,
// what ParseChromeTrace reads back, and what StitchChromeTraces merges.
// Its checks (SpanNames, Links, RequireAncestor) work on the parsed value,
// so a command parses each trace once, whatever it asks of it.
type ChromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// WriteChrome exports the trace as Chrome trace-event JSON, loadable in
// chrome://tracing and Perfetto.
func (t *Trace) WriteChrome(w io.Writer) error {
	if t == nil {
		return nil
	}
	flat := flatten(t.snapshot())
	ct := ChromeTrace{TraceEvents: make([]chromeEvent, 0, len(flat))}
	for _, f := range flat {
		ev := chromeEvent{
			Name: f.s.name,
			Cat:  "pipeline",
			Ph:   "X",
			Ts:   float64(f.s.start) / float64(time.Microsecond),
			Dur:  float64(f.s.dur) / float64(time.Microsecond),
			Pid:  1,
			Tid:  f.s.tid + 1,
		}
		ev.Args = map[string]any{}
		for _, a := range f.s.attrs {
			ev.Args[a.Key] = a.Value
		}
		// Causal identity: every exported span carries its trace/span ID, and
		// non-root spans their parent link, so per-process exports stitch into
		// one fleet trace (ChromeTrace.Links checks the links resolve).
		ev.Args["trace_id"] = f.s.sc.TraceID
		ev.Args["span_id"] = f.s.sc.SpanID
		if f.s.parentID != "" {
			ev.Args["parent_span_id"] = f.s.parentID
		}
		ct.TraceEvents = append(ct.TraceEvents, ev)
	}
	data, err := ct.Encode()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// Encode renders the document as indented JSON with a trailing newline.
func (ct *ChromeTrace) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(ct, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ParseChromeTrace parses a Chrome trace-event document and checks that
// every event is a well-formed complete span: a name, phase "X", and no
// negative timestamp or duration.
func ParseChromeTrace(data []byte) (*ChromeTrace, error) {
	var ct ChromeTrace
	if err := json.Unmarshal(data, &ct); err != nil {
		return nil, fmt.Errorf("obs: trace: not valid JSON: %w", err)
	}
	for i, ev := range ct.TraceEvents {
		if ev.Name == "" {
			return nil, fmt.Errorf("obs: trace: event %d has no name", i)
		}
		if ev.Ph != "X" {
			return nil, fmt.Errorf("obs: trace: event %d (%s): phase %q, want \"X\"", i, ev.Name, ev.Ph)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			return nil, fmt.Errorf("obs: trace: event %d (%s): negative ts/dur", i, ev.Name)
		}
	}
	return &ct, nil
}

// SpanNames lists the distinct span names in the trace, sorted.
func (ct *ChromeTrace) SpanNames() []string {
	set := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		set[ev.Name] = true
	}
	return sortedKeys(set)
}
