package introspect

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"csspgo/internal/obs"
	"csspgo/internal/profdata"
)

func get(t *testing.T, h http.Handler, path string) (*http.Response, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return res, body
}

func TestServerEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer("quickstart", reg)
	rep := obs.NewReport("test")
	if err := s.SetProfile(testProfile(), rep); err != nil {
		t.Fatalf("SetProfile: %v", err)
	}
	h := s.Handler()

	res, body := get(t, h, "/healthz")
	if res.StatusCode != 200 || !strings.Contains(string(body), `"status":"ok"`) {
		t.Fatalf("/healthz: %d %q", res.StatusCode, body)
	}
	if !strings.Contains(string(body), `"generation":1`) ||
		!strings.Contains(string(body), `"last_refresh":"none"`) {
		t.Fatalf("/healthz must report generation and last refresh: %q", body)
	}

	res, body = get(t, h, "/metrics")
	if res.StatusCode != 200 {
		t.Fatalf("/metrics: %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "0.0.4") {
		t.Fatalf("/metrics content-type = %q", ct)
	}
	for _, want := range []string{"serve_requests", "serve_swap_latency_ns{quantile=\"0.99\"}"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	res, body = get(t, h, "/flamegraph")
	if res.StatusCode != 200 || !bytes.Equal(body, EncodeFoldedText(Folded(testProfile()))) {
		t.Fatalf("/flamegraph: %d %q", res.StatusCode, body)
	}

	res, body = get(t, h, "/profiles/quickstart")
	if res.StatusCode != 200 {
		t.Fatalf("/profiles: %d", res.StatusCode)
	}
	if res.Header.Get("X-Profile-Generation") != "1" {
		t.Fatalf("generation header = %q", res.Header.Get("X-Profile-Generation"))
	}
	back, err := profdata.Decode(body)
	if err != nil {
		t.Fatalf("served profile does not decode: %v", err)
	}
	if back.TotalSamples() != testProfile().TotalSamples() {
		t.Fatalf("served profile samples = %d", back.TotalSamples())
	}
	if res, _ = get(t, h, "/profiles/quickstart.prof"); res.StatusCode != 200 {
		t.Fatalf("/profiles/quickstart.prof: %d", res.StatusCode)
	}
	if res, _ = get(t, h, "/profiles/other"); res.StatusCode != 404 {
		t.Fatalf("/profiles/other: %d", res.StatusCode)
	}

	res, body = get(t, h, "/report")
	if res.StatusCode != 200 {
		t.Fatalf("/report: %d", res.StatusCode)
	}
	if _, err := obs.DecodeReport(body); err != nil {
		t.Fatalf("/report does not decode: %v", err)
	}

	if reg.Counter(obs.MServeRequests).Value() == 0 {
		t.Fatal("serve.requests not incremented")
	}
}

func TestServerBeforeFirstProfile(t *testing.T) {
	s := NewServer("p", obs.NewRegistry())
	h := s.Handler()
	for _, path := range []string{"/report", "/flamegraph", "/profiles/p"} {
		if res, _ := get(t, h, path); res.StatusCode != 404 {
			t.Fatalf("%s before SetProfile: %d", path, res.StatusCode)
		}
	}
	if res, _ := get(t, h, "/healthz"); res.StatusCode != 200 {
		t.Fatal("/healthz must work before first profile")
	}
}

func TestRefreshLoopSwaps(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer("p", reg)
	if err := s.SetProfile(testProfile(), nil); err != nil {
		t.Fatalf("SetProfile: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.RefreshLoop(ctx, time.Millisecond, func() (*profdata.Profile, *obs.Report, error) {
			return testProfile(), nil, nil
		})
	}()
	deadline := time.After(5 * time.Second)
	for s.Generation() < 3 {
		select {
		case <-deadline:
			t.Fatal("refresh loop never swapped")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	<-done
	if reg.Counter(obs.MServeRefreshes).Value() < 2 {
		t.Fatalf("serve.refreshes = %d", reg.Counter(obs.MServeRefreshes).Value())
	}
	cur := s.Current()
	if cur == nil || cur.Generation < 3 {
		t.Fatalf("current = %+v", cur)
	}
}

// The backoff schedule: full cadence while healthy, doubling per
// consecutive failure, capped at 8x, reset by success.
func TestNextRefreshDelay(t *testing.T) {
	const iv = time.Second
	cases := []struct {
		failures int
		want     time.Duration
	}{
		{0, iv}, {1, 2 * iv}, {2, 4 * iv}, {3, 8 * iv}, {4, 8 * iv}, {100, 8 * iv}, {-1, iv},
	}
	for _, c := range cases {
		if got := nextRefreshDelay(iv, c.failures); got != c.want {
			t.Fatalf("nextRefreshDelay(%v, %d) = %v, want %v", iv, c.failures, got, c.want)
		}
	}
}

// A failing refresher keeps the last-good generation serving and recovers
// to normal cadence once it heals.
func TestRefreshLoopBacksOffAndRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer("p", reg)
	if err := s.SetProfile(testProfile(), nil); err != nil {
		t.Fatalf("SetProfile: %v", err)
	}
	gen1 := s.Current()

	var calls atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.RefreshLoop(ctx, time.Millisecond, func() (*profdata.Profile, *obs.Report, error) {
			if calls.Add(1) <= 3 {
				return nil, nil, io.ErrUnexpectedEOF
			}
			return testProfile(), nil, nil
		})
	}()
	deadline := time.After(5 * time.Second)
	for reg.Counter(obs.MServeRefreshes).Value() < 2 {
		select {
		case <-deadline:
			t.Fatal("loop never recovered from failures")
		case <-time.After(time.Millisecond):
		}
		// Throughout the failure streak the original generation serves.
		if f := reg.Counter(obs.MServeRefreshFailures).Value(); f > 0 && f < 3 && s.Current() != gen1 {
			t.Fatal("failed refresh replaced the served generation")
		}
	}
	cancel()
	<-done
	if got := reg.Counter(obs.MServeRefreshFailures).Value(); got != 3 {
		t.Fatalf("serve.refresh_failures = %d, want 3 (one per attempt)", got)
	}
	if s.Generation() < 3 {
		t.Fatalf("generation = %d after recovery", s.Generation())
	}
}

// The daemon runs behind obs.Serve's hardened loop (phase timeouts are
// pinned next to it in internal/obs): through a real listener, an oversized
// upload is refused instead of read and a normal request passes the cap
// untouched.
func TestHTTPServerHardened(t *testing.T) {
	s := NewServer("p", obs.NewRegistry())
	if err := s.SetProfile(testProfile(), nil); err != nil {
		t.Fatalf("SetProfile: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- obs.Serve(ctx, l, s.Handler()) }()
	base := "http://" + l.Addr().String()

	res, err := http.Post(base+"/healthz", "application/octet-stream", bytes.NewReader(make([]byte, 2<<20)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want %d", res.StatusCode, http.StatusRequestEntityTooLarge)
	}
	res, err = http.Get(base + "/profiles/p")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("GET through hardened loop: %d", res.StatusCode)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

func TestRefreshLoopCountsFailures(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer("p", reg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.RefreshLoop(ctx, time.Millisecond, func() (*profdata.Profile, *obs.Report, error) {
			return nil, nil, io.ErrUnexpectedEOF
		})
	}()
	deadline := time.After(5 * time.Second)
	for reg.Counter(obs.MServeRefreshFailures).Value() < 2 {
		select {
		case <-deadline:
			t.Fatal("failures never counted")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	<-done
	if s.Generation() != 0 {
		t.Fatal("failed refresh must not swap")
	}
}

// /overhead 404s before the first artifact lands and serves the exact bytes
// the refresher published afterwards (the server treats the artifact as
// opaque — no re-encoding, so fleet-side byte comparisons hold).
func TestServerOverheadEndpoint(t *testing.T) {
	s := NewServer("p", obs.NewRegistry())
	if err := s.SetProfile(testProfile(), nil); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	res, _ := get(t, h, "/overhead")
	if res.StatusCode != 404 {
		t.Fatalf("/overhead before first artifact -> %d", res.StatusCode)
	}

	artifact := []byte(`{"schema":"csspgo-overhead/v1"}` + "\n")
	s.SetOverhead(artifact)
	res, body := get(t, h, "/overhead")
	if res.StatusCode != 200 {
		t.Fatalf("/overhead -> %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("content-type = %q", ct)
	}
	if !bytes.Equal(body, artifact) {
		t.Fatalf("served bytes differ: %q", body)
	}
	// nil delivery is ignored, not a wipe.
	s.SetOverhead(nil)
	if res, _ := get(t, h, "/overhead"); res.StatusCode != 200 {
		t.Fatalf("nil SetOverhead wiped the artifact: %d", res.StatusCode)
	}
}
