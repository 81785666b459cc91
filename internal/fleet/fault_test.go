package fleet

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"csspgo/internal/profdata"
)

// fetchVia runs one short-deadline fetch against the injector and returns
// the result (the fetcher is the same client the aggregator uses, so this
// exercises the exact ingest path the faults target).
func fetchVia(t *testing.T, in *Injector, retries int) (fetchResult, error) {
	t.Helper()
	srv := httptest.NewServer(in)
	defer srv.Close()
	f := newFetcher(FetchConfig{
		Timeout:     200 * time.Millisecond,
		Retries:     retries,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
		JitterSeed:  3,
	})
	return f.fetch(context.Background(), srv.URL, "")
}

func TestInjectorPassThrough(t *testing.T) {
	in := NewInjector(newProfileServer(testProfile("f"), 4), 1)
	res, err := fetchVia(t, in, -1)
	if err != nil {
		t.Fatalf("pass-through fetch: %v", err)
	}
	if res.Generation != 4 {
		t.Fatalf("generation = %d, want 4", res.Generation)
	}
	if _, err := profdata.Decode(res.Body); err != nil {
		t.Fatalf("pass-through payload corrupted: %v", err)
	}
}

func TestInjectorOutageAndHang(t *testing.T) {
	in := NewInjector(newProfileServer(testProfile("f"), 1), 1)
	in.SetFault(faultOutage)
	if _, err := fetchVia(t, in, -1); err == nil {
		t.Fatalf("outage fetch succeeded")
	}
	in.SetFault(faultHang)
	start := time.Now()
	if _, err := fetchVia(t, in, -1); err == nil {
		t.Fatalf("hanging fetch succeeded")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("hang escaped the deadline (%s)", el)
	}
}

func TestInjectorSlowDripStalls(t *testing.T) {
	in := NewInjector(newProfileServer(testProfile("f"), 1), 1)
	in.SetFault(faultSlowDrip)
	start := time.Now()
	if _, err := fetchVia(t, in, -1); err == nil {
		t.Fatalf("slow-drip fetch delivered a full body")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("slow-drip escaped the deadline (%s)", el)
	}
}

// Truncate and corrupt deliver complete HTTP responses carrying damaged
// payloads — the lenient decoder's job, not the fetcher's.
func TestInjectorPayloadFaults(t *testing.T) {
	clean := profdata.EncodeBinary(testProfile("f0", "f1", "f2", "f3"))

	in := NewInjector(newProfileServer(testProfile("f0", "f1", "f2", "f3"), 1), 9)
	in.SetFault(faultTruncate)
	res, err := fetchVia(t, in, -1)
	if err != nil {
		t.Fatalf("truncate fetch: %v", err)
	}
	if len(res.Body) >= len(clean) {
		t.Fatalf("truncated body not shorter (%d vs %d)", len(res.Body), len(clean))
	}
	if !bytes.Equal(res.Body, clean[:len(res.Body)]) {
		t.Fatalf("truncate changed bytes instead of cutting the tail")
	}

	in.SetFault(faultCorrupt)
	res, err = fetchVia(t, in, -1)
	if err != nil {
		t.Fatalf("corrupt fetch: %v", err)
	}
	if len(res.Body) != len(clean) || bytes.Equal(res.Body, clean) {
		t.Fatalf("corrupt body unchanged or resized")
	}
	// Neither damaged payload may panic the lenient decoder.
	profdata.DecodeLenient(res.Body)
}

// Flap fails even-numbered requests and passes odd ones, so a fetcher with
// one retry deterministically succeeds on the second attempt.
func TestInjectorFlapRecoversOnRetry(t *testing.T) {
	in := NewInjector(newProfileServer(testProfile("f"), 1), 1)
	in.SetFault(faultFlap)
	// Retries -1 = genuinely none (0 means "default budget").
	if _, err := fetchVia(t, in, -1); err == nil {
		t.Fatalf("first flap request succeeded")
	}
	res, err := fetchVia(t, in, -1)
	if err != nil {
		t.Fatalf("second flap request failed: %v", err)
	}
	if res.Attempts != 1 {
		t.Fatalf("attempts = %d", res.Attempts)
	}
	// With a retry budget the flap is invisible end-to-end.
	res, err = fetchVia(t, in, 1)
	if err != nil || res.Attempts != 2 {
		t.Fatalf("retry did not absorb the flap: attempts=%d err=%v", res.Attempts, err)
	}
}

func TestInjectorStaleEpochReplays(t *testing.T) {
	old := profdata.EncodeBinary(testProfile("old"))
	in := NewInjector(newProfileServer(testProfile("new"), 9), 1)
	in.SetStalePayload(old, 2)
	in.SetFault(faultStaleEpoch)
	res, err := fetchVia(t, in, -1)
	if err != nil {
		t.Fatalf("stale-epoch fetch: %v", err)
	}
	if res.Generation != 2 || !bytes.Equal(res.Body, old) {
		t.Fatalf("stale replay wrong: gen=%d", res.Generation)
	}
}
