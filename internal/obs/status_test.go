package obs

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// A bare Status — registry only — still answers every endpoint: empty
// documents for the nil journal and series, "status":"ok" alone on
// /healthz, and 404 on /overhead until there is something to serve.
func TestStatusMountBare(t *testing.T) {
	s := &Status{Title: "bare", Reg: NewRegistry()}
	mux := http.NewServeMux()
	s.Mount(mux)
	want := map[string]struct {
		code     int
		ct, body string
	}{
		"/healthz":    {200, "application/json", "{\"status\":\"ok\"}\n"},
		"/metrics":    {200, "text/plain; version=0.0.4; charset=utf-8", ""},
		"/timeseries": {200, "application/json", TimeSeriesSchema},
		"/events":     {200, "application/x-ndjson", ""},
		"/overhead":   {404, "text/plain; charset=utf-8", "no overhead ledger"},
		"/dashboard":  {200, "text/html; charset=utf-8", "<h1>bare</h1>"},
	}
	if len(want) != len(StatusEndpoints) {
		t.Fatalf("StatusEndpoints = %v, the table covers %d", StatusEndpoints, len(want))
	}
	for _, ep := range StatusEndpoints {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", ep, nil))
		w := want[ep]
		if rec.Code != w.code || rec.Header().Get("Content-Type") != w.ct || !strings.Contains(rec.Body.String(), w.body) {
			t.Errorf("%s -> %d [%s] %q, want %d [%s] containing %q",
				ep, rec.Code, rec.Header().Get("Content-Type"), rec.Body.String(), w.code, w.ct, w.body)
		}
	}

	// The daemon's closures are read per request.
	s.Health = func() map[string]any { return map[string]any{"generation": 4} }
	s.Overhead = func() ([]byte, bool) { return []byte("{}\n"), true }
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if got := rec.Body.String(); got != "{\"generation\":4,\"status\":\"ok\"}\n" {
		t.Errorf("/healthz with a Health closure = %q", got)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/overhead", nil))
	if rec.Code != 200 || rec.Body.String() != "{}\n" {
		t.Errorf("/overhead with a document -> %d %q", rec.Code, rec.Body.String())
	}
}

// The one http.Server every daemon runs bounds every connection phase and
// caps request bodies, declared or not.
func TestServeHardened(t *testing.T) {
	var read int
	hs := hardened(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		buf := make([]byte, 64<<10)
		for {
			n, err := r.Body.Read(buf)
			read += n
			if err != nil {
				return
			}
		}
	}))
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.WriteTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("unbounded server phase: %+v", hs)
	}
	rec := httptest.NewRecorder()
	hs.Handler.ServeHTTP(rec, httptest.NewRequest("POST", "/", bytes.NewReader(make([]byte, maxRequestBody+1))))
	if rec.Code != http.StatusRequestEntityTooLarge || read != 0 {
		t.Fatalf("declared oversized body: %d after reading %d bytes, want %d unread", rec.Code, read, http.StatusRequestEntityTooLarge)
	}
	req := httptest.NewRequest("POST", "/", bytes.NewReader(make([]byte, 2*maxRequestBody)))
	req.ContentLength = -1 // chunked: the cap bites while reading
	hs.Handler.ServeHTTP(httptest.NewRecorder(), req)
	if read > maxRequestBody {
		t.Fatalf("undeclared body: handler read %d bytes past the %d cap", read, maxRequestBody)
	}
}
