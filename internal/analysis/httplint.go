package analysis

import (
	"fmt"
	"net/http"
)

// HTTP-surface lint for both daemons (`csspgo serve`, `csspgo fleet
// -status-addr`): every endpoint must set Content-Type before writing its
// body — a body write with no Content-Type makes net/http sniff the type,
// which is nondeterministic across payloads and breaks byte-oriented
// clients (the folded-stack golden compare, Prometheus scrapers). A golden
// body test would pin the sniffed type rather than catch the mistake. The
// lint drives the handler in-process with a header-order-recording
// ResponseWriter; no listener is involved.

// headerOrderWriter records whether Content-Type was set before the first
// body write (or explicit WriteHeader).
type headerOrderWriter struct {
	header      http.Header
	wrote       bool
	status      int
	ctAtWrite   string
	wroteBefore bool // body bytes written while Content-Type was empty
}

func newHeaderOrderWriter() *headerOrderWriter {
	return &headerOrderWriter{header: http.Header{}, status: http.StatusOK}
}

func (w *headerOrderWriter) Header() http.Header { return w.header }

func (w *headerOrderWriter) WriteHeader(status int) {
	if w.wrote {
		return
	}
	w.wrote = true
	w.status = status
	w.ctAtWrite = w.header.Get("Content-Type")
}

func (w *headerOrderWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	if w.ctAtWrite == "" && len(p) > 0 {
		w.wroteBefore = true
	}
	return len(p), nil
}

// CheckHTTPEndpoints drives h once per endpoint path and flags handlers
// that write a body (or commit headers) before setting Content-Type, plus
// endpoints that fail outright (5xx). 4xx responses are fine — endpoints
// may legitimately 404 before data arrives — but they too must carry a
// Content-Type.
func CheckHTTPEndpoints(h http.Handler, endpoints []string) []Diagnostic {
	var diags []Diagnostic
	for _, ep := range endpoints {
		req, err := http.NewRequest(http.MethodGet, "http://lint.invalid"+ep, nil)
		if err != nil {
			diags = append(diags, Diagnostic{
				Sev: SevError, Check: "http-endpoint", Block: -1,
				Msg: fmt.Sprintf("endpoint %q: bad probe request: %v", ep, err),
			})
			continue
		}
		w := newHeaderOrderWriter()
		h.ServeHTTP(w, req)
		if w.wroteBefore || (w.wrote && w.ctAtWrite == "") {
			diags = append(diags, Diagnostic{
				Sev: SevError, Check: "http-content-type", Block: -1,
				Msg: fmt.Sprintf("endpoint %q writes its response before setting Content-Type", ep),
			})
		}
		if w.status >= 500 {
			diags = append(diags, Diagnostic{
				Sev: SevError, Check: "http-endpoint", Block: -1,
				Msg: fmt.Sprintf("endpoint %q returned %d", ep, w.status),
			})
		}
	}
	return diags
}
