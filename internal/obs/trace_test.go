package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

// stepClock returns a deterministic clock advancing by step on every read.
func stepClock(step time.Duration) func() time.Time {
	base := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		t := base.Add(time.Duration(n) * step)
		n++
		return t
	}
}

// spanPaths lists every recorded span's slash-joined path, in export order.
func spanPaths(t *Trace) []string {
	if t == nil {
		return nil
	}
	var out []string
	for _, f := range flatten(t.snapshot()) {
		out = append(out, f.path)
	}
	return out
}

func TestTraceSpanPaths(t *testing.T) {
	tr := newTraceWithClock(stepClock(time.Millisecond))
	b := tr.Span("build")
	ir := b.Span("irgen")
	ir.End()
	o := b.Span("optimize")
	o.Span("opt.inline").End()
	o.End()
	b.End()
	tr.Span("report").End()

	want := []string{"build", "build/irgen", "build/optimize", "build/optimize/opt.inline", "report"}
	if got := spanPaths(tr); !reflect.DeepEqual(got, want) {
		t.Fatalf("span paths = %v, want %v", got, want)
	}
}

func TestChromeExport(t *testing.T) {
	tr := newTraceWithClock(stepClock(time.Millisecond))
	s := tr.Span("build") // start at 1ms
	w := s.WorkerSpan("unwind_shard", 2, A("samples", 7))
	w.End()
	s.End()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateArtifact(buf.Bytes(), 2); err != nil {
		t.Fatalf("exported trace does not validate: %v", err)
	}
	var ct struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatal(err)
	}
	if len(ct.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(ct.TraceEvents))
	}
	ev := ct.TraceEvents[1]
	if ev.Name != "unwind_shard" || ev.Ph != "X" {
		t.Fatalf("worker event = %+v", ev)
	}
	// Worker 2 lands on its own lane: tid = worker+1 internally, +1 on export.
	if ev.Tid != 4 {
		t.Errorf("worker tid = %d, want 4", ev.Tid)
	}
	// Clock reads: epoch, build start, shard start, shard end -> 1ms duration.
	if ev.Ts != 2000 || ev.Dur != 1000 {
		t.Errorf("worker ts/dur = %v/%v, want 2000/1000", ev.Ts, ev.Dur)
	}
	if ev.Args["samples"] != float64(7) {
		t.Errorf("args = %v", ev.Args)
	}
}

func TestOpenSpansClosedAtExport(t *testing.T) {
	tr := newTraceWithClock(stepClock(time.Millisecond))
	tr.Span("never_ended")
	paths := spanPaths(tr)
	if !reflect.DeepEqual(paths, []string{"never_ended"}) {
		t.Fatalf("paths = %v", paths)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("open span broke export: %v", err)
	}
}

func TestEndIdempotent(t *testing.T) {
	clock := stepClock(time.Millisecond)
	tr := newTraceWithClock(clock)
	s := tr.Span("x")
	s.End()
	d1 := s.dur
	s.End()
	if s.dur != d1 {
		t.Fatalf("second End changed duration: %v -> %v", d1, s.dur)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	s := tr.Span("x")
	s.SetAttr("k", 1)
	s.Span("y").End()
	s.WorkerSpan("z", 3).End()
	s.End()
	if got := s.Name(); got != "" {
		t.Errorf("nil span Name = %q", got)
	}
	if tr.Root() != nil {
		t.Error("nil trace Root != nil")
	}
	if spanPaths(tr) != nil {
		t.Error("nil trace export not empty")
	}
	if err := tr.WriteChrome(&bytes.Buffer{}); err != nil {
		t.Errorf("nil trace WriteChrome: %v", err)
	}
}

func TestConcurrentWorkerSpans(t *testing.T) {
	tr := NewTrace()
	parent := tr.Span("unwind")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := parent.WorkerSpan("shard", i)
			sp.SetAttr("worker", i)
			sp.End()
		}(i)
	}
	wg.Wait()
	parent.End()
	paths := spanPaths(tr)
	if len(paths) != 9 {
		t.Fatalf("got %d paths, want 9: %v", len(paths), paths)
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := []struct {
		name string
		data string
		min  int
	}{
		{"not json", "nope", 1},
		{"unnamed event", `{"traceEvents":[{"ph":"X","ts":0,"dur":1}]}`, 1},
		{"bad phase", `{"traceEvents":[{"name":"a","ph":"B","ts":0,"dur":1}]}`, 1},
		{"negative ts", `{"traceEvents":[{"name":"a","ph":"X","ts":-1,"dur":1}]}`, 1},
		{"too few spans", `{"traceEvents":[{"name":"a","ph":"X","ts":0,"dur":1}]}`, 2},
	}
	for _, c := range cases {
		if _, err := ValidateArtifact([]byte(c.data), c.min); err == nil {
			t.Errorf("%s: validated, want error", c.name)
		}
	}
}
