package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testFetchConfig() FetchConfig {
	return FetchConfig{
		Timeout:     500 * time.Millisecond,
		Retries:     2,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		JitterSeed:  7,
	}
}

func TestFetchSuccessParsesGeneration(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Profile-Generation", "42")
		w.Write([]byte("payload"))
	}))
	defer srv.Close()
	f := newFetcher(testFetchConfig())
	res, err := f.fetch(context.Background(), srv.URL, "")
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if string(res.Body) != "payload" || res.Generation != 42 || res.Attempts != 1 {
		t.Fatalf("result = %+v", res)
	}
}

// Bounded retries: a server failing twice then succeeding is retried to
// success; one failing always exhausts the budget and reports attempts.
func TestFetchRetriesBounded(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	f := newFetcher(testFetchConfig())
	res, err := f.fetch(context.Background(), srv.URL, "")
	if err != nil {
		t.Fatalf("fetch after transient failures: %v", err)
	}
	if res.Attempts != 3 || string(res.Body) != "ok" {
		t.Fatalf("result = %+v", res)
	}

	calls.Store(-1000) // always failing from here on
	res, err = f.fetch(context.Background(), srv.URL, "")
	if err == nil {
		t.Fatalf("fetch succeeded against always-failing server")
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", res.Attempts)
	}
	if !strings.Contains(err.Error(), "3 attempt(s) failed") {
		t.Fatalf("error does not report attempts: %v", err)
	}
}

// A hanging server costs at most the per-attempt deadline per attempt.
func TestFetchDeadlineBoundsHang(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer srv.Close()
	cfg := testFetchConfig()
	cfg.Timeout = 50 * time.Millisecond
	cfg.Retries = 1
	f := newFetcher(cfg)
	start := time.Now()
	if _, err := f.fetch(context.Background(), srv.URL, ""); err == nil {
		t.Fatalf("fetch from hanging server succeeded")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("hanging fetch took %s; deadline not enforced", el)
	}
}

// The body cap rejects oversized responses instead of buffering them.
func TestFetchBodyCap(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, 4096))
	}))
	defer srv.Close()
	cfg := testFetchConfig()
	cfg.MaxBody = 1024
	cfg.Retries = 1
	f := newFetcher(cfg)
	if _, err := f.fetch(context.Background(), srv.URL, ""); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversized body not rejected: %v", err)
	}
}

// Context cancellation aborts the retry loop between attempts.
func TestFetchContextCancel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	cfg := testFetchConfig()
	cfg.Retries = 100
	cfg.BackoffBase = 50 * time.Millisecond
	cfg.BackoffMax = 50 * time.Millisecond
	f := newFetcher(cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := f.fetch(ctx, srv.URL, "")
	if err == nil {
		t.Fatalf("fetch succeeded against 503 server")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("cancelled fetch ran %s past its context", el)
	}
}

// Jittered backoff is deterministic per (seed, URL) and stays within
// [d/2, d) of the capped exponential schedule.
func TestBackoffDeterministicAndBounded(t *testing.T) {
	cfg := FetchConfig{BackoffBase: 100 * time.Millisecond, BackoffMax: time.Second, JitterSeed: 9}
	f1 := newFetcher(cfg)
	f2 := newFetcher(cfg)
	r1, r2 := f1.seedFor("http://a/profiles/x"), f2.seedFor("http://a/profiles/x")
	for k := 0; k < 8; k++ {
		d1 := f1.backoffDelay(k, &r1)
		d2 := f2.backoffDelay(k, &r2)
		if d1 != d2 {
			t.Fatalf("attempt %d: jitter not deterministic (%s vs %s)", k, d1, d2)
		}
		want := cfg.BackoffBase
		for i := 0; i < k && want < cfg.BackoffMax; i++ {
			want *= 2
		}
		if want > cfg.BackoffMax {
			want = cfg.BackoffMax
		}
		if d1 < want/2 || d1 >= want {
			t.Fatalf("attempt %d: delay %s outside [%s, %s)", k, d1, want/2, want)
		}
	}
	// A different URL gets a different jitter stream.
	ra := f1.seedFor("http://a/profiles/x")
	rb := f1.seedFor("http://b/profiles/x")
	if f1.backoffDelay(3, &ra) == f1.backoffDelay(3, &rb) {
		t.Fatalf("distinct URLs share a jitter stream")
	}
}
