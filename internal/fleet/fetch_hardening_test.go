package fleet

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"

	"csspgo/internal/profdata"
)

// TestFetchSurvivesDishonestSources polls four sources whose framing the
// fetcher cannot trust: a Content-Length above MaxBody, a 64 MiB length
// over a 10-byte body, a chunked body with no length at all, and a body
// cut short of its declared length by a closed connection. Each must end
// in the state it always has, and neither lying length may make the
// aggregator allocate more than the fetcher's presize bound.
func TestFetchSurvivesDishonestSources(t *testing.T) {
	text := []byte(profdata.EncodeToString(testProfile("a", "b")))
	const maxBody = 4 << 20
	sources := []struct {
		name    string
		serve   http.HandlerFunc
		want    SourceState
		lies    bool // declares a length it does not send
		samples uint64
	}{
		{"length above MaxBody", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(maxBody+1))
			w.Write(text)
		}, stateFetchFailed, true, 0},
		{"64 MiB declared, 10 bytes sent", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(64<<20))
			w.Write(text[:10])
		}, stateFetchFailed, true, 0},
		{"chunked, no length", func(w http.ResponseWriter, r *http.Request) {
			w.Write(text[:len(text)/2])
			w.(http.Flusher).Flush()
			w.Write(text[len(text)/2:])
		}, StateMerged, false, testProfile("a", "b").TotalSamples()},
		{"cut short", func(w http.ResponseWriter, r *http.Request) {
			conn, buf, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			writeCutResponse(buf, text)
		}, stateFetchFailed, false, 0},
	}
	for _, src := range sources {
		srv := httptest.NewServer(src.serve)
		cfg := Config{Fetch: FetchConfig{
			Timeout: 2 * time.Second, Retries: -1, MaxBody: maxBody, JitterSeed: 3,
		}}
		agg := NewAggregator([]*Source{{Name: "src", URL: srv.URL}}, cfg, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		round := agg.RoundOnce(context.Background())
		runtime.ReadMemStats(&after)
		srv.Close()
		o := round.Outcomes[0]
		if o.State != src.want || o.Attempts != 1 || o.Samples != src.samples {
			t.Errorf("%s: outcome %+v, want state %s after 1 attempt with %d samples", src.name, o, src.want, src.samples)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; src.lies && grew > fetchPresizeMax+fetchPresizeMax/4 {
			t.Errorf("%s: one round allocated %d KB; a lying length may cost at most the %d KB presize", src.name, grew>>10, fetchPresizeMax>>10)
		}
	}
}

// writeCutResponse writes a 200 response declaring body's length, then
// only the first half of it.
func writeCutResponse(w *bufio.ReadWriter, body []byte) {
	fmt.Fprintf(w, "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n", len(body))
	w.Write(body[:len(body)/2])
	w.Flush()
}
