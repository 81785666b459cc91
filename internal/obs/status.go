package obs

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"time"
)

// Status is the status surface every csspgo daemon exposes: liveness
// (/healthz), the registry (/metrics), the bounded time-series store
// (/timeseries), the event journal (/events), the daemon's cost/confidence
// document (/overhead) and a self-contained HTML dashboard (/dashboard).
// `csspgo serve` and `csspgo fleet` both mount this one value; what differs
// between them is the state behind it and the two closures. Fields are read
// per request, so a daemon may install its series or journal after it has
// built its handler.
type Status struct {
	Title   string // dashboard title
	Reg     *Registry
	Series  *TimeSeries // nil serves an empty store
	Journal *Journal    // nil serves an empty journal
	// Health returns the daemon's own /healthz fields; Mount adds
	// "status":"ok". Nil contributes none.
	Health func() map[string]any
	// Overhead returns the /overhead document, or false while the daemon
	// has none to serve (404). Nil is always false.
	Overhead func() ([]byte, bool)
}

// StatusEndpoints is the surface Mount registers, as probe paths: the
// header-order tests, the smoke lanes and the daemons' start-up listings
// all iterate over this one list.
var StatusEndpoints = []string{"/healthz", "/metrics", "/timeseries", "/events", "/overhead", "/dashboard"}

// Mount registers the surface on mux. Every handler sets Content-Type
// before writing (internal/surfacetest's header-order check holds it to that), and
// metrics are snapshotted under one epoch, so a scrape never observes a
// torn view.
func (s *Status) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Not a bare 200: the daemon's fields let a poller distinguish
		// "alive" from "alive but stagnant". A map, so keys marshal sorted.
		st := map[string]any{"status": "ok"}
		if s.Health != nil {
			for k, v := range s.Health() {
				st[k] = v
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(renderPrometheus(s.Reg.Snapshot()))
	})
	mux.HandleFunc("/timeseries", func(w http.ResponseWriter, r *http.Request) {
		data, err := s.Series.Encode()
		writeEncoded(w, "application/json", data, err)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		data, err := s.Journal.Encode()
		writeEncoded(w, "application/x-ndjson", data, err)
	})
	mux.HandleFunc("/overhead", func(w http.ResponseWriter, r *http.Request) {
		if s.Overhead != nil {
			if data, ok := s.Overhead(); ok {
				writeEncoded(w, "application/json", data, nil)
				return
			}
		}
		http.Error(w, "no overhead ledger collected yet", http.StatusNotFound)
	})
	mux.HandleFunc("/dashboard", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(renderDashboard(s.Title, s.Series, s.Reg.Snapshot(), s.Journal.Events()))
	})
}

func writeEncoded(w http.ResponseWriter, contentType string, data []byte, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Write(data)
}

// maxRequestBody caps request bodies: a daemon's whole surface is GET, so
// anything beyond a trivial body is a malformed or hostile client.
const maxRequestBody = 1 << 20

// capRequestBody rejects requests declaring an oversized body outright and
// caps undeclared (chunked) bodies at the same limit.
func capRequestBody(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength > maxRequestBody {
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
		h.ServeHTTP(w, r)
	})
}

// hardened builds the http.Server every daemon runs: every I/O phase is
// bounded, so a slow-loris client (or a stalled network) cannot pin
// connections open indefinitely, and request bodies are capped.
func hardened(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           capRequestBody(h),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// Serve runs the hardened server for h on l until ctx is done, then shuts
// down gracefully (in-flight requests get up to five seconds to finish).
// A closed listener after shutdown is a clean exit, not an error.
func Serve(ctx context.Context, l net.Listener, h http.Handler) error {
	hs := hardened(h)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case <-ctx.Done():
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(shctx)
	case err := <-errc:
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	}
}
