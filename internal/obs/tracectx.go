package obs

import (
	"fmt"
	"strings"
)

// Cross-process trace-context propagation, W3C-traceparent style: the fleet
// aggregator stamps every profile fetch with a `traceparent` header carrying
// its trace ID and the fetching span's ID; the serving instance adopts that
// context on its handler and refresh spans, so the per-process Chrome trace
// exports stitch into one causally-linked fleet trace (`csspgo trace
// -stitch`).
//
// Identifiers are deterministic: a process's trace ID derives from named
// seeds (DeriveTraceID), and span IDs derive from the local trace ID plus a
// per-trace sequence number — two identical runs mint identical IDs, which
// keeps every downstream artifact reproducible.

// TraceparentHeader is the HTTP header the fleet fetcher emits and the
// serve daemon ingests.
const TraceparentHeader = "traceparent"

// SpanContext identifies one span within one trace: a 32-hex-digit trace ID
// and a 16-hex-digit span ID (the W3C trace-context shapes).
type SpanContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether the context carries well-formed IDs.
func (c SpanContext) Valid() bool {
	return isHex(c.TraceID, 32) && isHex(c.SpanID, 16) &&
		c.TraceID != strings.Repeat("0", 32) && c.SpanID != strings.Repeat("0", 16)
}

// Traceparent renders the context as a version-00 traceparent header value
// ("" for an invalid context, so callers can set the header unconditionally).
func (c SpanContext) Traceparent() string {
	if !c.Valid() {
		return ""
	}
	return "00-" + c.TraceID + "-" + c.SpanID + "-01"
}

// ParseTraceparent parses a version-00 traceparent header value. Malformed
// or absent values yield (zero, false) — propagation is best-effort and a
// bad header must never fail a request.
func ParseTraceparent(s string) (SpanContext, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) != 4 || parts[0] != "00" {
		return SpanContext{}, false
	}
	c := SpanContext{TraceID: parts[1], SpanID: parts[2]}
	if !c.Valid() || !isHex(parts[3], 2) {
		return SpanContext{}, false
	}
	return c, true
}

func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// fnv1a64 is the repo's standard string hash.
func fnv1a64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer — cheap avalanche for derived IDs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// DeriveTraceID deterministically derives a 32-hex-digit trace ID from
// named seed parts (e.g. "fleet", the jitter seed). Identical parts yield
// an identical ID, so reruns of a seeded pipeline mint reproducible traces.
func DeriveTraceID(parts ...string) string {
	joined := strings.Join(parts, "\x1f")
	hi := mix64(fnv1a64(joined) ^ 0x7261636563747874) // "racectxt"
	lo := mix64(fnv1a64(joined) ^ 0x63737370676f7472) // "csspgotr"
	if hi == 0 {
		hi = 1
	}
	if lo == 0 {
		lo = 1
	}
	return fmt.Sprintf("%016x%016x", hi, lo)
}

// spanIDFrom mints span ID n of the trace whose local ID hashes to base.
// IDs are unique within a trace by construction and collide across traces
// only if the traces share a local ID.
func spanIDFrom(base, n uint64) string {
	id := mix64(base ^ (n * 0x9e3779b97f4a7c15))
	if id == 0 {
		id = 1
	}
	return fmt.Sprintf("%016x", id)
}

// Stitching: merge N per-process Chrome trace exports into one trace where
// parent links resolve across process boundaries.

// StitchChromeTraces merges per-process Chrome traces into one: input i's
// events land on pid i+1 (tid lanes are preserved), and the trace/span/
// parent IDs the exporter stamped into args are untouched, so a span
// fetched under a remote parent links to its cross-process ancestor.
func StitchChromeTraces(traces []*ChromeTrace) *ChromeTrace {
	var merged ChromeTrace
	for i, ct := range traces {
		for _, ev := range ct.TraceEvents {
			ev.Pid = i + 1
			merged.TraceEvents = append(merged.TraceEvents, ev)
		}
	}
	return &merged
}

// StitchStats summarizes a stitched trace's link structure.
type StitchStats struct {
	Spans             int // events carrying a span_id
	Links             int // parent links that resolved
	CrossProcessLinks int // resolved links whose parent lives on another pid
}

// spanKey identifies a span across processes: IDs are scoped per trace.
type spanKey struct{ trace, span string }

func argString(args map[string]any, key string) string {
	if v, ok := args[key].(string); ok {
		return v
	}
	return ""
}

// Links checks the trace's causal structure (stitched or single-process):
// every event must carry a well-formed trace/span ID, span IDs must be
// unique per trace, and every parent_span_id must resolve to a span in the
// same trace — a broken parent link is an error, not a warning. At least
// minCrossLinks resolved links must cross a process boundary (pass 0 for a
// single-process trace).
func (ct *ChromeTrace) Links(minCrossLinks int) (StitchStats, error) {
	var st StitchStats
	owner := map[spanKey]int{} // -> pid
	for i, ev := range ct.TraceEvents {
		tid, sid := argString(ev.Args, "trace_id"), argString(ev.Args, "span_id")
		if !isHex(tid, 32) || !isHex(sid, 16) {
			return st, fmt.Errorf("obs: stitch: event %d (%s): missing or malformed trace_id/span_id", i, ev.Name)
		}
		k := spanKey{tid, sid}
		if _, dup := owner[k]; dup {
			return st, fmt.Errorf("obs: stitch: duplicate span id %s in trace %s", sid, tid)
		}
		owner[k] = ev.Pid
		st.Spans++
	}
	for i, ev := range ct.TraceEvents {
		parent := argString(ev.Args, "parent_span_id")
		if parent == "" {
			continue
		}
		k := spanKey{argString(ev.Args, "trace_id"), parent}
		pid, ok := owner[k]
		if !ok {
			return st, fmt.Errorf("obs: stitch: event %d (%s): broken parent link %s (no such span in trace %s)",
				i, ev.Name, parent, k.trace)
		}
		st.Links++
		if pid != ev.Pid {
			st.CrossProcessLinks++
		}
	}
	if st.CrossProcessLinks < minCrossLinks {
		return st, fmt.Errorf("obs: stitch: %d cross-process parent link(s), want >= %d", st.CrossProcessLinks, minCrossLinks)
	}
	return st, nil
}

// RequireAncestor checks that every event named span has an event named
// ancestor on its (possibly cross-process) parent chain. It errors when no
// span named span exists at all — a vacuous pass would hide a dead lane.
func (ct *ChromeTrace) RequireAncestor(span, ancestor string) error {
	byID := map[spanKey]chromeEvent{}
	for _, ev := range ct.TraceEvents {
		tid, sid := argString(ev.Args, "trace_id"), argString(ev.Args, "span_id")
		if tid != "" && sid != "" {
			byID[spanKey{tid, sid}] = ev
		}
	}
	checked := 0
	for _, ev := range ct.TraceEvents {
		if ev.Name != span {
			continue
		}
		checked++
		found := false
		cur := ev
		for hops := 0; hops < len(ct.TraceEvents)+1; hops++ {
			parent := argString(cur.Args, "parent_span_id")
			if parent == "" {
				break
			}
			next, ok := byID[spanKey{argString(cur.Args, "trace_id"), parent}]
			if !ok {
				return fmt.Errorf("obs: trace: span %q: broken parent link %s", span, parent)
			}
			if next.Name == ancestor {
				found = true
				break
			}
			cur = next
		}
		if !found {
			return fmt.Errorf("obs: trace: a span %q has no ancestor %q", span, ancestor)
		}
	}
	if checked == 0 {
		return fmt.Errorf("obs: trace: no spans named %q", span)
	}
	return nil
}
