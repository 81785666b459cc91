package pgo

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"csspgo/internal/drift"
	"csspgo/internal/introspect"
	"csspgo/internal/obs"
	"csspgo/internal/profdata"
	"csspgo/internal/quality"
	"csspgo/internal/source"
)

func loadQuickstart(t *testing.T) []*source.File {
	t.Helper()
	path := filepath.Join("..", "..", "examples", "quickstart", "app.ml")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read quickstart: %v", err)
	}
	f, err := source.Parse("app.ml", string(data))
	if err != nil {
		t.Fatalf("parse quickstart: %v", err)
	}
	return []*source.File{f}
}

func quickstartRefresher(t *testing.T, reg *obs.Registry) func() (*profdata.Profile, *obs.Report, error) {
	t.Helper()
	refresh, err := NewRefresher(loadQuickstart(t), SeededRequests(60, 1, 1000), DefaultProfileConfig(), reg)
	if err != nil {
		t.Fatalf("NewRefresher: %v", err)
	}
	return refresh
}

func httpGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return res, body
}

// TestServeHTTPSmoke drives a real listener on an ephemeral port through
// every endpoint: health, Prometheus metrics (with summary quantiles), the
// flamegraph export (byte-compared against the committed golden), the
// profile fetch (must decode), and the run manifest (must validate).
func TestServeHTTPSmoke(t *testing.T) {
	reg := obs.NewRegistry()
	refresh := quickstartRefresher(t, reg)
	prof, rep, err := refresh()
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	srv := introspect.NewServer("quickstart", reg)
	if err := srv.SetProfile(prof, rep); err != nil {
		t.Fatalf("SetProfile: %v", err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- obs.Serve(ctx, l, srv.Handler()) }()
	base := "http://" + l.Addr().String()

	res, body := httpGet(t, base+"/healthz")
	if res.StatusCode != 200 || !strings.Contains(string(body), `"status":"ok"`) {
		t.Fatalf("/healthz: %d %q", res.StatusCode, body)
	}

	res, body = httpGet(t, base+"/metrics")
	if res.StatusCode != 200 {
		t.Fatalf("/metrics: %d", res.StatusCode)
	}
	// Every non-comment line must parse as Prometheus text exposition.
	lineRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{quantile="0\.\d+"\})? -?[0-9.e+-]+$`)
	var serveCounters, quantiles int
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !lineRE.MatchString(line) {
			t.Fatalf("/metrics line does not parse: %q", line)
		}
		if strings.HasPrefix(line, "serve_") {
			serveCounters++
		}
		if strings.HasPrefix(line, "serve_swap_latency_ns{quantile=") {
			quantiles++
		}
	}
	if serveCounters == 0 {
		t.Fatal("/metrics has no serve_* samples")
	}
	if quantiles != 3 {
		t.Fatalf("/metrics has %d swap-latency quantiles, want 3 (p50/p95/p99)", quantiles)
	}

	res, body = httpGet(t, base+"/flamegraph")
	if res.StatusCode != 200 {
		t.Fatalf("/flamegraph: %d", res.StatusCode)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "quickstart.folded"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(body, golden) {
		t.Fatalf("/flamegraph differs from testdata/quickstart.folded:\n got:\n%s\nwant:\n%s", body, golden)
	}

	res, body = httpGet(t, base+"/profiles/quickstart")
	if res.StatusCode != 200 {
		t.Fatalf("/profiles/quickstart: %d", res.StatusCode)
	}
	served, err := profdata.Decode(body)
	if err != nil {
		t.Fatalf("served profile does not decode: %v", err)
	}
	if served.TotalSamples() != prof.TotalSamples() {
		t.Fatalf("served samples = %d, collected = %d", served.TotalSamples(), prof.TotalSamples())
	}

	res, body = httpGet(t, base+"/report")
	if res.StatusCode != 200 {
		t.Fatalf("/report: %d", res.StatusCode)
	}
	if _, err := obs.DecodeReport(body); err != nil {
		t.Fatalf("/report invalid: %v", err)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestServeRefreshSwapsUnderLoad runs the refresh loop against the real
// pipeline and asserts at least one atomic swap lands while requests are
// in flight (the -race lane makes this a swap-safety test).
func TestServeRefreshSwapsUnderLoad(t *testing.T) {
	reg := obs.NewRegistry()
	refresh := quickstartRefresher(t, reg)
	prof, rep, err := refresh()
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	srv := introspect.NewServer("quickstart", reg)
	if err := srv.SetProfile(prof, rep); err != nil {
		t.Fatalf("SetProfile: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		srv.RefreshLoop(ctx, time.Millisecond, refresh)
	}()

	// Hammer the handler from this goroutine while swaps happen.
	h := srv.Handler()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Generation() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("no refresh swap within deadline")
		}
		req, _ := http.NewRequest("GET", "http://x/profiles/quickstart", nil)
		w := &discardWriter{h: http.Header{}}
		h.ServeHTTP(w, req)
		if w.status != 200 {
			t.Fatalf("/profiles during refresh: %d", w.status)
		}
	}
	cancel()
	<-loopDone
	if reg.Counter(obs.MServeRefreshes).Value() < 1 {
		t.Fatalf("serve.refreshes = %d", reg.Counter(obs.MServeRefreshes).Value())
	}
	if srv.Current().Generation != srv.Generation() {
		t.Fatal("current generation out of sync")
	}
}

type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = 200
	}
	return len(p), nil
}
func (w *discardWriter) WriteHeader(s int) {
	if w.status == 0 {
		w.status = s
	}
}

// collectQuickstartProfile builds a probed binary from the files and
// collects a CS profile on the fixed train stream.
func collectQuickstartProfile(t *testing.T, files []*source.File) *profdata.Profile {
	t.Helper()
	refresh, err := NewRefresher(files, SeededRequests(60, 1, 1000), DefaultProfileConfig(), nil)
	if err != nil {
		t.Fatalf("NewRefresher: %v", err)
	}
	prof, _, err := refresh()
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	return prof
}

// TestDiffProfilesDriftLowersOverlap pins the diff analytics to reality:
// identical collections overlap at ~1.0, and a source mutation (drift)
// strictly lowers the context overlap.
func TestDiffProfilesDriftLowersOverlap(t *testing.T) {
	files := loadQuickstart(t)
	before := collectQuickstartProfile(t, files)
	same := collectQuickstartProfile(t, files)

	identical := quality.DiffProfiles(before, same)
	if identical.ContextOverlap < 0.999 {
		t.Fatalf("identical collections overlap = %v, want >= 0.999", identical.ContextOverlap)
	}

	mutated := drift.Apply(files, drift.InsertStmts, 42)
	after := collectQuickstartProfile(t, mutated)
	drifted := quality.DiffProfiles(before, after)
	if drifted.ContextOverlap >= identical.ContextOverlap {
		t.Fatalf("drifted overlap %v not below identical %v", drifted.ContextOverlap, identical.ContextOverlap)
	}
	if drifted.MeanFuncDivergence <= identical.MeanFuncDivergence {
		t.Fatalf("drifted divergence %v not above identical %v", drifted.MeanFuncDivergence, identical.MeanFuncDivergence)
	}
}

// TestServeGoldenRegen regenerates testdata/quickstart.folded when
// UPDATE_GOLDEN=1 (kept as a test so the recipe lives next to the compare).
func TestServeGoldenRegen(t *testing.T) {
	if os.Getenv("UPDATE_GOLDEN") != "1" {
		t.Skip("set UPDATE_GOLDEN=1 to rewrite testdata/quickstart.folded")
	}
	prof := collectQuickstartProfile(t, loadQuickstart(t))
	data := introspect.EncodeFoldedText(introspect.Folded(prof))
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", "quickstart.folded"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote testdata/quickstart.folded (%d bytes)\n", len(data))
}
