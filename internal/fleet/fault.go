package fleet

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"csspgo/internal/drift"
)

// Fault is one injectable source-side failure mode. Together they model
// the hostile fleet the aggregator must survive: instances that vanish,
// hang, dribble, corrupt their artifacts, flap, or replay stale epochs.
type Fault uint8

// Fault kinds.
const (
	// FaultNone passes requests through untouched.
	FaultNone Fault = iota
	// faultOutage answers every request 503 — a crashed or partitioned
	// instance (the HTTP-visible half of a partial fleet outage).
	faultOutage
	// faultHang accepts the request and never answers: the client's
	// deadline is the only way out.
	faultHang
	// faultSlowDrip writes a short prefix of the real payload, then stalls
	// until the client gives up — a wedged connection mid-transfer.
	faultSlowDrip
	// faultTruncate serves a truncated profile payload (complete HTTP
	// response, cut-short artifact) — a crashed writer or partial upload.
	faultTruncate
	// faultCorrupt serves the real payload with bits flipped past the
	// header — storage rot in the profile store.
	faultCorrupt
	// faultFlap alternates failure and success per request — a source
	// oscillating in and out of health, the circuit breaker's prey.
	faultFlap
	// faultStaleEpoch replays a captured older generation with its old
	// X-Profile-Generation — a source serving from a rolled-back replica.
	faultStaleEpoch
)

// AllFaults returns every injectable fault kind (FaultNone excluded), in
// declaration order.
func AllFaults() []Fault {
	return []Fault{faultOutage, faultHang, faultSlowDrip, faultTruncate, faultCorrupt, faultFlap, faultStaleEpoch}
}

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case faultOutage:
		return "outage"
	case faultHang:
		return "hang"
	case faultSlowDrip:
		return "slow-drip"
	case faultTruncate:
		return "truncate"
	case faultCorrupt:
		return "corrupt"
	case faultFlap:
		return "flap"
	case faultStaleEpoch:
		return "stale-epoch"
	default:
		return fmt.Sprintf("fault(%d)", uint8(f))
	}
}

// Injector wraps a serving instance's HTTP handler with a switchable,
// deterministic fault. Payload mutations reuse the drift corruptions, so
// the damage is deterministic in (seed, request index).
type Injector struct {
	inner http.Handler

	mu       sync.Mutex
	fault    Fault
	seed     uint64
	reqs     uint64
	stale    []byte // payload replayed by faultStaleEpoch
	staleGen uint64
}

// NewInjector wraps inner with no fault active.
func NewInjector(inner http.Handler, seed uint64) *Injector {
	return &Injector{inner: inner, seed: seed}
}

// SetFault switches the active fault (FaultNone heals the source).
func (in *Injector) SetFault(f Fault) {
	in.mu.Lock()
	in.fault = f
	in.mu.Unlock()
}

// Fault returns the active fault.
func (in *Injector) Fault() Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fault
}

// SetStalePayload captures the body and generation faultStaleEpoch replays.
func (in *Injector) SetStalePayload(body []byte, gen uint64) {
	in.mu.Lock()
	in.stale = append([]byte(nil), body...)
	in.staleGen = gen
	in.mu.Unlock()
}

// captureWriter buffers the inner handler's response so payload faults can
// mutate it before anything reaches the wire.
type captureWriter struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

func newCaptureWriter() *captureWriter {
	return &captureWriter{header: http.Header{}, code: http.StatusOK}
}

func (c *captureWriter) Header() http.Header         { return c.header }
func (c *captureWriter) WriteHeader(code int)        { c.code = code }
func (c *captureWriter) Write(p []byte) (int, error) { return c.buf.Write(p) }

// replay writes the (possibly mutated) captured response.
func (c *captureWriter) replay(w http.ResponseWriter, body []byte) {
	for k, vs := range c.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(c.code)
	w.Write(body)
}

func (in *Injector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	in.mu.Lock()
	fault := in.fault
	n := in.reqs
	in.reqs++
	seed := in.seed
	stale, staleGen := in.stale, in.staleGen
	in.mu.Unlock()

	switch fault {
	case FaultNone:
		in.inner.ServeHTTP(w, r)
	case faultOutage:
		http.Error(w, "injected outage", http.StatusServiceUnavailable)
	case faultHang:
		<-r.Context().Done()
	case faultSlowDrip:
		cw := newCaptureWriter()
		in.inner.ServeHTTP(cw, r)
		body := cw.buf.Bytes()
		drip := len(body) / 4
		if drip > 64 {
			drip = 64
		}
		w.Header().Set("Content-Type", cw.header.Get("Content-Type"))
		w.WriteHeader(cw.code)
		w.Write(body[:drip])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		<-r.Context().Done()
	case faultTruncate:
		cw := newCaptureWriter()
		in.inner.ServeHTTP(cw, r)
		cw.replay(w, drift.Corrupt(cw.buf.Bytes(), drift.TruncateTail, seed+n))
	case faultCorrupt:
		cw := newCaptureWriter()
		in.inner.ServeHTTP(cw, r)
		cw.replay(w, drift.Corrupt(cw.buf.Bytes(), drift.FlipBits, seed+n))
	case faultFlap:
		if n%2 == 0 {
			http.Error(w, "injected flap", http.StatusServiceUnavailable)
			return
		}
		in.inner.ServeHTTP(w, r)
	case faultStaleEpoch:
		if stale == nil {
			http.Error(w, "no stale payload captured", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Profile-Generation", strconv.FormatUint(staleGen, 10))
		w.Header().Set("Content-Length", strconv.Itoa(len(stale)))
		w.Write(stale)
	default:
		in.inner.ServeHTTP(w, r)
	}
}
