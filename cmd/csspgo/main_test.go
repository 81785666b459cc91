package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csspgo/internal/introspect"
	"csspgo/internal/obs"
	"csspgo/internal/overhead"
	"csspgo/internal/pgo"
	"csspgo/internal/profdata"
	"csspgo/internal/source"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	defer func() { os.Stdout = saved }()
	fn()
	w.Close()
	return <-done
}

// `report -validate` picks the check from the file itself: every artifact
// csspgo writes validates under its own schema, and anything else is
// refused with an error naming what the file declared.
func TestValidateArtifact(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter(obs.MFleetRounds).Add(2)

	rep := obs.NewReport("test")
	rep.AddMetrics(reg)
	report, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ts := obs.NewTimeSeries(4)
	ts.Sample(1, reg.Snapshot())
	series, err := ts.Encode()
	if err != nil {
		t.Fatal(err)
	}
	jr := obs.NewJournal()
	jr.Emit(obs.Event{Type: obs.EvPromotion, Round: 1})
	jr.Emit(obs.Event{Type: obs.EvRollback, Round: 2})
	journal, err := jr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	sp := tr.Span("build")
	sp.Span("irgen").End()
	sp.End()
	var trace bytes.Buffer
	if err := tr.WriteChrome(&trace); err != nil {
		t.Fatal(err)
	}
	ledger, err := (&overhead.Report{Schema: overhead.Schema}).Encode()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		data     []byte
		minSpans int
		kind     string // substring of the reported kind; "" = must fail
		errText  string // substring of the error when it must fail
	}{
		{"run report", report, 1, obs.Schema, ""},
		{"time series", series, 1, obs.TimeSeriesSchema, ""},
		{"journal", journal, 1, obs.EventsSchema, ""},
		{"one-line journal", journal[:bytes.IndexByte(journal, '\n')+1], 1, obs.EventsSchema, ""},
		{"overhead ledger", ledger, 1, overhead.Schema, ""},
		{"chrome trace", trace.Bytes(), 2, "Chrome trace", ""},
		{"chrome trace, too few spans", trace.Bytes(), 3, "", "distinct span"},
		{"journal with a seq gap", bytes.Replace(journal, []byte(`"seq":2`), []byte(`"seq":3`), 1), 1, "", "seq 3, want 2"},
		{"unknown schema", []byte(`{"schema":"csspgo-remarks/v9"}`), 1, "", `unknown schema "csspgo-remarks/v9"`},
		{"no schema", []byte(`{"tool":"x"}`), 1, "", `no "schema" and no "traceEvents"`},
		{"not JSON", []byte("main 160\n"), 1, "", "not a JSON artifact"},
		{"empty", nil, 1, "", "not a JSON artifact"},
	}
	for _, c := range cases {
		kind, err := obs.ValidateArtifact(c.data, c.minSpans)
		switch {
		case c.kind != "" && (err != nil || !strings.Contains(kind, c.kind)):
			t.Errorf("%s: got (%q, %v), want a valid %s", c.name, kind, err, c.kind)
		case c.kind == "" && (err == nil || !strings.Contains(err.Error(), c.errText)):
			t.Errorf("%s: got (%q, %v), want an error containing %q", c.name, kind, err, c.errText)
		}
	}

	// Through the subcommand: any mix of artifacts in one call, the file
	// named on failure.
	dir := t.TempDir()
	paths := map[string][]byte{"r.json": report, "ts.json": series, "j.jsonl": journal, "bad.json": []byte(`{"schema":"nope/v1"}`)}
	for name, data := range paths {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out := captureStdout(t, func() {
		err = cmdReport([]string{"-validate", filepath.Join(dir, "r.json"), filepath.Join(dir, "ts.json"), filepath.Join(dir, "j.jsonl")})
	})
	if err != nil || strings.Count(out, ": valid ") != 3 {
		t.Fatalf("report -validate over three artifacts: %v\n%s", err, out)
	}
	captureStdout(t, func() { err = cmdReport([]string{"-validate", filepath.Join(dir, "bad.json")}) })
	if err == nil || !strings.Contains(err.Error(), "bad.json") || !strings.Contains(err.Error(), `"nope/v1"`) {
		t.Fatalf("report -validate on an unknown schema: %v", err)
	}
}

// `csspgo trace` parses each input once and asks everything of the parsed
// traces: -stitch merges them in memory, checks links and ancestry, and
// writes a file that validates on its own; a broken chain names the span.
func TestTraceStitchesParsedInputs(t *testing.T) {
	dir := t.TempDir()
	agg := obs.NewTrace()
	agg.SetTraceID(obs.DeriveTraceID("stitch", "agg"))
	round := agg.Span("fleet.round")
	inst := obs.NewTrace()
	inst.SetTraceID(obs.DeriveTraceID("stitch", "inst"))
	inst.Root().SpanRemote("serve.handle_profile", round.Context()).End()
	round.End()
	var paths []string
	for i, tr := range []*obs.Trace{agg, inst} {
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, filepath.Join(dir, fmt.Sprintf("p%d.json", i)))
		if err := os.WriteFile(paths[i], buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	merged := filepath.Join(dir, "merged.json")
	var err error
	out := captureStdout(t, func() {
		err = cmdTrace(append([]string{"-stitch", merged, "-require-ancestor", "serve.handle_profile=fleet.round"}, paths...))
	})
	if err != nil || !strings.Contains(out, "2 spans, 1 links (1 cross-process)") {
		t.Fatalf("trace -stitch: %v\n%s", err, out)
	}
	out = captureStdout(t, func() { err = cmdTrace([]string{"-min-cross-links", "1", merged}) })
	if err != nil || !strings.Contains(out, "valid trace: 2 spans") {
		t.Fatalf("trace on the stitched file: %v\n%s", err, out)
	}
	captureStdout(t, func() { err = cmdTrace([]string{"-require-ancestor", "serve.handle_profile=fleet.round", paths[1]}) })
	if err == nil || !strings.Contains(err.Error(), "broken parent link") {
		t.Fatalf("trace on an instance export alone: %v", err)
	}
}

// Both daemons open their HTTP surface through openSurface: it listens and
// prints the banner, then the surface endpoint by endpoint.
func TestOpenSurfaceListsEndpoints(t *testing.T) {
	out := captureStdout(t, func() {
		l, err := openSurface("127.0.0.1:0", "test status", " (detail)", obs.StatusEndpoints)
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
	})
	if !strings.HasPrefix(out, "test status on http://127.0.0.1:") || !strings.Contains(out, " (detail)\n") {
		t.Fatalf("banner: %q", out)
	}
	for _, ep := range obs.StatusEndpoints {
		if !strings.Contains(out, ep+"\n") {
			t.Fatalf("endpoint %s not listed:\n%s", ep, out)
		}
	}
}

// `csspgo fleet -status-addr` opens the status surface through the same
// helper as `csspgo serve`: every obs.StatusEndpoints path listed under
// the banner.
func TestFleetStatusAddrOpensTheSharedSurface(t *testing.T) {
	prof := profdata.New(profdata.ProbeBased, false)
	prof.FuncProfile("main").AddBody(profdata.LocKey{ID: 1}, 500)
	inst := introspect.NewServer("p", obs.NewRegistry())
	if err := inst.SetProfile(prof, nil); err != nil {
		t.Fatal(err)
	}
	src := httptest.NewServer(inst.Handler())
	defer src.Close()

	var err error
	out := captureStdout(t, func() {
		err = cmdFleet([]string{"-o", filepath.Join(t.TempDir(), "fleet.prof"),
			"-status-addr", "127.0.0.1:0", src.URL + "/profiles/p"})
	})
	if err != nil {
		t.Fatalf("fleet: %v\n%s", err, out)
	}
	if !strings.Contains(out, "fleet status on http://127.0.0.1:") || !strings.Contains(out, "promoted generation 1") {
		t.Fatalf("fleet output:\n%s", out)
	}
	for _, ep := range obs.StatusEndpoints {
		if !strings.Contains(out, ep+"\n") {
			t.Fatalf("endpoint %s not listed:\n%s", ep, out)
		}
	}
}

func trainingBinary(t *testing.T) string {
	t.Helper()
	f, err := source.Parse("m.ml", `
func main(n, unused) {
	var s = 0;
	for (var i = 0; i < n + 50; i = i + 1) { s = s + i; }
	return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pgo.Build([]*source.File{f}, pgo.BuildConfig{Probes: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "app.bin")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := res.Bin.Save(out); err != nil {
		t.Fatal(err)
	}
	return path
}

// -bound 0 used to divide by zero in a private copy of the request
// generator; the shared pgo.SeededRequests clamps it.
func TestProfileBoundZero(t *testing.T) {
	bin := trainingBinary(t)
	for _, bound := range []string{"0", "-7"} {
		out := filepath.Join(t.TempDir(), "app.prof")
		var err error
		captureStdout(t, func() {
			err = cmdProfile([]string{"-bin", bin, "-o", out, "-kind", "cs", "-n", "20", "-seed", "1",
				"-bound", bound, "-period", "97", "-workers", "1"})
		})
		if err != nil {
			t.Fatalf("bound=%s: %v", bound, err)
		}
		if data, err := os.ReadFile(out); err != nil || len(data) == 0 {
			t.Fatalf("bound=%s: no profile written (%v)", bound, err)
		}
	}
}

// An unknown -kind must be rejected before the binary is even opened, not
// after the whole training simulation has run.
func TestProfileRejectsUnknownKindFirst(t *testing.T) {
	err := cmdProfile([]string{"-bin", filepath.Join(t.TempDir(), "missing.bin"), "-o", os.DevNull,
		"-kind", "cz", "-n", "1", "-bound", "10"})
	if err == nil || !strings.Contains(err.Error(), `unknown profile kind "cz"`) {
		t.Fatalf("want an unknown-kind error, got %v", err)
	}
}
