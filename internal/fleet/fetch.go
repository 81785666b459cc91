package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"csspgo/internal/obs"
)

// FetchConfig tunes the per-source profile fetch. Zero values take the
// defaults below.
type FetchConfig struct {
	// Timeout is the per-attempt deadline: a hanging or slow-dripping
	// source costs at most this much per attempt (default 2s).
	Timeout time.Duration
	// Retries is how many additional attempts follow a failed one
	// (default 2, i.e. up to 3 attempts).
	Retries int
	// BackoffBase/BackoffMax bound the jittered exponential backoff
	// between attempts: attempt k sleeps a uniform-random duration in
	// [d/2, d) with d = min(BackoffBase<<k, BackoffMax) (defaults
	// 50ms / 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// JitterSeed makes the backoff jitter deterministic per (seed, URL);
	// 0 picks a fixed seed, so tests and the fault harness replay
	// identically.
	JitterSeed uint64
	// MaxBody caps a response body; a source streaming garbage cannot
	// balloon aggregator memory (default 64 MiB).
	MaxBody int64
}

func (c FetchConfig) withDefaults() FetchConfig {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 64 << 20
	}
	return c
}

// fetchResult is one successful profile fetch.
type fetchResult struct {
	Body       []byte
	Generation uint64 // X-Profile-Generation header (0 when absent)
	Attempts   int    // attempts spent, successful one included
}

// fetcher retrieves profile artifacts from serving instances with
// per-attempt deadlines and bounded, jitter-backed retries. It is safe for
// concurrent use; backoff jitter is deterministic per URL so concurrent
// fetches do not perturb each other.
type fetcher struct {
	cfg    FetchConfig
	client *http.Client
}

// newFetcher returns a fetcher with its own HTTP client (the per-attempt
// deadline rides on the request context, not the client).
func newFetcher(cfg FetchConfig) *fetcher {
	return &fetcher{cfg: cfg.withDefaults(), client: &http.Client{}}
}

// xorshift64 is the repo's small deterministic generator.
type xorshift64 uint64

func (x *xorshift64) next() uint64 {
	v := uint64(*x) | 1
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift64(v)
	return v
}

// seedFor folds the URL into the jitter seed (FNV-1a) so every source gets
// an independent but reproducible jitter stream.
func (f *fetcher) seedFor(url string) xorshift64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(url); i++ {
		h ^= uint64(url[i])
		h *= 1099511628211
	}
	seed := f.cfg.JitterSeed
	if seed == 0 {
		seed = 0x5eedf1ee7
	}
	return xorshift64(h ^ seed)
}

// backoffDelay returns the jittered sleep before retry attempt k (0-based).
func (f *fetcher) backoffDelay(k int, rng *xorshift64) time.Duration {
	d := f.cfg.BackoffBase
	for i := 0; i < k && d < f.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > f.cfg.BackoffMax {
		d = f.cfg.BackoffMax
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rng.next()%uint64(half))
}

// fetch GETs url with up to 1+Retries attempts, each under its own
// deadline. Transport errors, non-200 statuses, and oversized bodies all
// count as attempt failures; ctx cancellation aborts the retry loop. A
// non-empty traceparent is sent on every attempt, so the serving instance
// can adopt the aggregator's trace context on its handler spans.
func (f *fetcher) fetch(ctx context.Context, url, traceparent string) (fetchResult, error) {
	rng := f.seedFor(url)
	var res fetchResult
	var lastErr error
	for attempt := 0; attempt <= f.cfg.Retries; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(f.backoffDelay(attempt-1, &rng))
			select {
			case <-ctx.Done():
				t.Stop()
				return res, fmt.Errorf("fleet: fetch %s: %w (after %d attempt(s): %v)", url, ctx.Err(), res.Attempts, lastErr)
			case <-t.C:
			}
		}
		res.Attempts++
		body, gen, err := f.fetchOnce(ctx, url, traceparent)
		if err == nil {
			res.Body, res.Generation = body, gen
			return res, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return res, fmt.Errorf("fleet: fetch %s: %d attempt(s) failed: %w", url, res.Attempts, lastErr)
}

func (f *fetcher) fetchOnce(ctx context.Context, url, traceparent string) ([]byte, uint64, error) {
	actx, cancel := context.WithTimeout(ctx, f.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	if traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Drain a little so the connection can be reused, then fail.
		io.CopyN(io.Discard, resp.Body, 512)
		return nil, 0, fmt.Errorf("status %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, f.cfg.MaxBody+1))
	if err != nil {
		return nil, 0, err
	}
	if int64(len(body)) > f.cfg.MaxBody {
		return nil, 0, fmt.Errorf("body exceeds %d-byte cap", f.cfg.MaxBody)
	}
	var gen uint64
	if h := resp.Header.Get("X-Profile-Generation"); h != "" {
		gen, _ = strconv.ParseUint(h, 10, 64)
	}
	return body, gen, nil
}
