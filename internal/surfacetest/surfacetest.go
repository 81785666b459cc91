// Package surfacetest holds the checks the daemons' tests share: it drives
// HTTP handlers in-process and reports endpoints that write before they set
// Content-Type, and it fails a package whose tests leave goroutines running
// (RunWithoutLeaks). It is imported only by tests: the daemons' surfaces
// (`csspgo serve`, `csspgo fleet -status-addr`) are fixed at compile time,
// so their tests check them once rather than the daemons at every start-up.
//
// A body written with no Content-Type makes net/http sniff the type, which
// varies with the payload and breaks byte-oriented clients (the
// folded-stack golden compare, Prometheus scrapers). The surface goldens
// would pin the sniffed type rather than catch the mistake, so the handlers
// are driven through a ResponseWriter that records header order.
package surfacetest

import (
	"fmt"
	"net/http"
	"net/http/httptest"
)

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

// HeaderOrderFindings drives h once per endpoint path and reports handlers
// that write a body (or commit headers) before setting Content-Type, as
// "content-type <path>", plus endpoints that fail outright (5xx), as
// "status <code> <path>". 4xx responses are fine — endpoints may
// legitimately 404 before data arrives — but they too must carry a
// Content-Type.
func HeaderOrderFindings(h http.Handler, endpoints []string) []string {
	var out []string
	for _, ep := range endpoints {
		w := newHeaderOrderWriter()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, ep, nil))
		if w.wroteBefore || (w.wrote && w.ctAtWrite == "") {
			out = append(out, fmt.Sprintf("content-type %s", ep))
		}
		if w.status >= 500 {
			out = append(out, fmt.Sprintf("status %d %s", w.status, ep))
		}
	}
	return out
}
