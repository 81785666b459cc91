package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"csspgo/internal/drift"
	"csspgo/internal/fleet"
	"csspgo/internal/obs"
)

// cmdFleet is the fleet-scale aggregation control plane: it polls N
// `csspgo serve` instances (the positional profile URLs), merges their
// profiles under circuit-breaker / freshness / quota policy, gates the
// merged candidate against the last-good artifact (context-overlap floor
// plus the `report -diff` manifest gate) and atomically persists each
// promoted generation. A candidate that fails the gate is rolled back:
// the last-good file is left byte-for-byte untouched and the command
// exits 2 (the same regression exit code as `report -diff`).
//
// -inject poison-counts is the control plane's self-test: the merged
// candidate's counts are adversarially poisoned before gating, and the
// gate MUST reject it — if the poisoned candidate is promoted, the command
// fails loudly with exit 1, because a promotion gate that cannot catch a
// poisoned profile is itself broken.
func cmdFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	out := fs.String("o", "fleet.prof", "last-good merged profile path (adopted at startup when present)")
	rounds := fs.Int("rounds", 1, "aggregation rounds (0 = continuous until interrupted)")
	interval := fs.Duration("interval", 30*time.Second, "delay between rounds (continuous mode)")
	timeout := fs.Duration("timeout", 2*time.Second, "per-source fetch deadline")
	retries := fs.Int("retries", 2, "per-source fetch retry budget")
	quota := fs.Uint64("quota", 0, "per-source sample quota per round (0 = unlimited)")
	freshness := fs.Duration("freshness", 0, "drop sources whose profile generation stagnates longer than this (0 = off)")
	minOverlap := fs.Float64("min-overlap", 0.5, "promotion-gate context-overlap floor against last-good")
	threshold := fs.Float64("threshold", 100*obs.DefaultRegressionThreshold, "manifest regression threshold in percent")
	weights := fs.String("weights", "", "comma-separated per-source merge weights (default 1 each)")
	inject := fs.String("inject", "", "fault self-test: \"poison-counts\" poisons the candidate; the gate must reject it")
	reportPath := fs.String("report", "", "write a machine-readable run manifest (JSON)")
	seed := fs.Uint64("seed", 1, "retry-jitter seed")
	tracePath := fs.String("trace", "", "write the aggregator's Chrome trace-event JSON (stitchable with serve-side traces)")
	journalPath := fs.String("journal", "", "write the normalized event journal (JSONL, csspgo-events/v1)")
	timeseriesPath := fs.String("timeseries", "", "write the normalized time-series store (JSON, csspgo-timeseries/v1)")
	statusAddr := fs.String("status-addr", "", "serve the fleet status surface (/healthz /metrics /timeseries /events /overhead /dashboard) on this address")
	_ = fs.Parse(args)

	if fs.NArg() == 0 {
		return fmt.Errorf("fleet: no source URLs (expected http://host:port/profiles/<name>...)")
	}
	if *inject != "" && *inject != "poison-counts" {
		return fmt.Errorf("fleet: unknown -inject %q (have: poison-counts)", *inject)
	}

	sources := make([]*fleet.Source, fs.NArg())
	ws, err := parseWeights(*weights, fs.NArg())
	if err != nil {
		return err
	}
	for i, url := range fs.Args() {
		sources[i] = &fleet.Source{Name: fmt.Sprintf("src%d", i), URL: url, Weight: ws[i]}
	}

	obsrv := obs.NewTrace()
	// Deterministic trace ID (derived from the jitter seed): two identical
	// runs mint identical span IDs, so stitched traces and journals are
	// byte-comparable across reruns.
	obsrv.SetTraceID(obs.DeriveTraceID("fleet", strconv.FormatUint(*seed, 10)))
	reg := obs.NewRegistry()
	journal := obs.NewJournal()
	series := obs.NewTimeSeries(0)
	cfg := fleet.Config{
		Fetch: fleet.FetchConfig{
			Timeout:    *timeout,
			Retries:    *retries,
			JitterSeed: *seed,
		},
		Quota:     *quota,
		Freshness: *freshness,
		Trace:     obsrv.Root(),
		Journal:   journal,
	}
	agg := fleet.NewAggregator(sources, cfg, reg)
	prom := fleet.NewPromoter(fleet.PromoteConfig{
		MinOverlap: *minOverlap,
		Threshold:  *threshold / 100,
		Journal:    journal,
	}, reg)

	// Adopt an existing last-good artifact byte-for-byte, so a rollback in
	// this run can restore exactly what the previous run persisted.
	if data, err := os.ReadFile(*out); err == nil {
		if err := prom.AdoptEncoded(data); err != nil {
			return fmt.Errorf("fleet: %s: %w", *out, err)
		}
		fmt.Printf("adopted last-good %s (%d bytes)\n", *out, len(data))
	} else if !os.IsNotExist(err) {
		return err
	}
	if *inject != "" && prom.LastGood() == nil {
		return fmt.Errorf("fleet: -inject needs an existing last-good artifact at %s (the first promotion is ungated)", *out)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The fleet's own status surface: the one the serve daemon mounts, opened
	// and served the same way.
	status := (*fleet.StatusServer)(nil)
	if *statusAddr != "" {
		status = fleet.NewStatusServer(reg, journal, series)
		status.SetAggregator(agg)
		l, err := openSurface(*statusAddr, "fleet status", "", obs.StatusEndpoints)
		if err != nil {
			return err
		}
		statusDone := make(chan error, 1)
		go func() { statusDone <- obs.Serve(ctx, l, status.Handler()) }()
		defer func() {
			stop() // release the status server if we exit early
			<-statusDone
		}()
	}

	// observe publishes one finished round to the time-series store and the
	// status surface: stats first so obs.timeseries.* gauges land in the same
	// sample, then one point per cataloged metric under a single snapshot
	// epoch.
	observe := func(round *fleet.Round, promoted, gated bool) {
		series.PublishStats(reg)
		series.Sample(round.Num, reg.Snapshot())
		var gen uint64
		if lg := prom.LastGood(); lg != nil {
			gen = lg.Generation
		}
		status.ObserveRound(round.Num, round.Healthy, gen, fleet.OutcomeString(round, promoted, gated))
	}

	oneShot := *rounds == 1
	var gateFailed bool
	for n := 0; (*rounds == 0 || n < *rounds) && ctx.Err() == nil; n++ {
		if n > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(*interval):
			}
			if ctx.Err() != nil {
				break
			}
		}
		round := agg.RoundOnce(ctx)
		fmt.Printf("round %d: merged %d/%d sources\n%s", n+1, round.Healthy, len(sources), round.Summary())
		// Promotion events emitted this round inherit the round span's trace
		// context, so journal entries link back into the stitched trace.
		prom.BeginRound(round.Num, round.Ctx)
		if round.Merged == nil {
			observe(round, false, false)
			if oneShot {
				return fmt.Errorf("fleet: no source could be merged")
			}
			fmt.Fprintln(os.Stderr, "fleet: no source merged this round; last-good stays current")
			continue
		}

		cand := round.Merged
		if *inject == "poison-counts" {
			cand = drift.PoisonCounts(cand)
			fmt.Println("injected poison-counts into the merged candidate")
		}
		art, res := prom.Promote(cand, nil)
		observe(round, art != nil, art == nil)
		if art == nil {
			gateFailed = true
			fmt.Printf("gate: %s\n", res)
			if res.Diff != "" {
				fmt.Print(res.Diff)
			}
			fmt.Printf("rolled back: %s retains generation %d\n", *out, prom.LastGood().Generation)
			continue
		}
		if *inject != "" {
			return fmt.Errorf("fleet: INJECTED POISON NOT CAUGHT: gate promoted a poisoned candidate (overlap %.4f)", res.Overlap)
		}
		if err := art.WriteFile(*out); err != nil {
			return fmt.Errorf("fleet: persist %s: %w", *out, err)
		}
		fmt.Printf("promoted generation %d (overlap %.4f, %d samples) -> %s\n",
			art.Generation, res.Overlap, art.Profile.TotalSamples(), *out)
	}

	if *journalPath != "" {
		// Normalized: trace/span IDs stripped, logical clocks kept — two
		// identical runs write byte-identical journals.
		journal.Normalize()
		if err := obs.WriteFile(*journalPath, journal); err != nil {
			return err
		}
		fmt.Printf("wrote journal %s (%d events)\n", *journalPath, journal.Len())
	}
	if *timeseriesPath != "" {
		// Normalized: *_ns series zeroed (wall time is nondeterministic);
		// counts, gauges, and logical clocks survive byte-identically.
		series.Normalize()
		if err := obs.WriteFile(*timeseriesPath, series); err != nil {
			return err
		}
		sn, pn, _ := series.Stats()
		fmt.Printf("wrote timeseries %s (%d series, %d points)\n", *timeseriesPath, sn, pn)
	}
	if err := writeTrace(obsrv, *tracePath); err != nil {
		return err
	}
	if *reportPath != "" {
		rep := obs.NewReport("csspgo fleet")
		rep.Config["sources"] = fs.NArg()
		rep.Config["rounds"] = *rounds
		rep.Config["min_overlap"] = fmt.Sprintf("%g", *minOverlap)
		rep.AddTrace(obsrv)
		rep.AddMetrics(reg)
		if err := obs.WriteFile(*reportPath, rep); err != nil {
			return err
		}
		fmt.Printf("wrote report %s\n", *reportPath)
	}
	if gateFailed && oneShot {
		// The CI gate: a rejected promotion is exit 2 (same convention as
		// `report -diff`), distinct from operational errors (exit 1).
		fmt.Fprintln(os.Stderr, "fleet: promotion gate rejected the candidate; last-good rolled back")
		os.Exit(2)
	}
	return nil
}

// parseWeights expands the -weights list to one weight per source.
func parseWeights(s string, n int) ([]uint64, error) {
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = 1
	}
	if s == "" {
		return ws, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("fleet: %d weights for %d sources", len(parts), n)
	}
	for i, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil || v == 0 {
			return nil, fmt.Errorf("fleet: bad weight %q (want positive integer)", p)
		}
		ws[i] = v
	}
	return ws, nil
}
