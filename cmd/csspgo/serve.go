package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"csspgo/internal/introspect"
	"csspgo/internal/obs"
	"csspgo/internal/pgo"
	"csspgo/internal/sampling"
	"csspgo/internal/source"
	"csspgo/internal/workloads"
)

// cmdServe runs the continuous-profiling daemon: it profiles a workload
// once (FullCS pipeline: sample, unwind, trim, pre-inline), then serves the
// profile, its folded flamegraph export, the run manifest, and Prometheus
// metrics over HTTP. With -refresh it re-profiles on a timer and atomically
// swaps each fresh generation in, publishing profile-diff analytics
// (quality.context_overlap etc.) between consecutive generations.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8572", "listen address (use :0 for an ephemeral port)")
	workload := fs.String("workload", "", "serve a named synthetic workload instead of source files")
	scale := fs.Int("scale", 1, "workload request-stream scale (with -workload)")
	name := fs.String("name", "", "profile name under /profiles/ (default: workload name or \"app\")")
	refresh := fs.Duration("refresh", 0, "re-profile and swap on this interval (0 = serve one generation)")
	n := fs.Int("n", 60, "training request count (source-file mode)")
	seed := fs.Int64("seed", 1, "request generator seed (source-file mode)")
	bound := fs.Int64("bound", 1000, "request magnitude bound (source-file mode)")
	period := fs.Uint64("period", 797, "sampling period (taken branches)")
	workers := fs.Int("workers", 0, "profile-generation worker pool size (0 = GOMAXPROCS)")
	tracePath := fs.String("trace", "", "write the daemon's Chrome trace-event JSON on shutdown (stitchable with the fleet trace)")
	ohBudget := fs.Float64("overhead-budget", 0, "profiling-overhead budget in percent; breaches are journaled (0 = no check)")
	_ = fs.Parse(args)

	if err := sampling.ValidateWorkers(*workers); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	pc := pgo.DefaultProfileConfig()
	pc.Period = *period
	pc.Workers = *workers

	reg := obs.NewRegistry()
	profName := *name
	if profName == "" {
		if *workload != "" {
			profName = *workload
		} else {
			profName = "app"
		}
	}
	// The daemon's overhead observatory: every refresh is metered, the
	// normalized ledger lands on /overhead, and budget breaches plus
	// low-confidence findings go to the journal the dashboard renders.
	journal := obs.NewJournal()
	oo := &pgo.OverheadObs{Journal: journal, BudgetPct: *ohBudget, Source: profName}
	var files []*source.File
	var train [][]int64
	if *workload != "" {
		if fs.NArg() > 0 {
			return fmt.Errorf("serve: -workload and source files are mutually exclusive")
		}
		w, err := workloads.Load(*workload, *scale)
		if err != nil {
			return err
		}
		files, train = w.Files, w.Train
	} else {
		var err error
		if files, err = parseFiles(fs.Args()); err != nil {
			return err
		}
		train = pgo.SeededRequests(*n, *seed, *bound)
	}
	refresher, err := pgo.NewRefresherObserved(files, train, pc, reg, oo)
	if err != nil {
		return err
	}

	srv := introspect.NewServer(profName, reg)
	srv.SetJournal(journal)
	oo.Sink = srv
	// The daemon's own trace: deterministic trace ID derived from the
	// profile name and training seed, so a fleet fixture stitches
	// identically across reruns. The seed keeps IDs distinct across the
	// instances of one fleet (same name, different seeds) — identical IDs
	// would collide in the stitched trace. Handler and refresh spans adopt
	// fleet-propagated traceparent contexts as remote parents, which is
	// what makes the exports stitchable.
	obsrv := obs.NewTrace()
	obsrv.SetTraceID(obs.DeriveTraceID("serve", profName, strconv.FormatInt(*seed, 10)))
	srv.SetTrace(obsrv.Root())
	srv.SetTimeSeries(obs.NewTimeSeries(0))

	// Collect the first generation synchronously so the daemon never serves
	// an empty profile.
	prof, rep, err := refresher()
	if err != nil {
		return fmt.Errorf("serve: initial profile collection: %w", err)
	}
	if err := srv.SetProfile(prof, rep); err != nil {
		return err
	}

	l, err := openSurface(*addr, fmt.Sprintf("serving profile %q", profName),
		fmt.Sprintf(" (generation %d, %d samples)", srv.Generation(), prof.TotalSamples()), srv.Endpoints())
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *refresh > 0 {
		fmt.Printf("refreshing every %s\n", *refresh)
		go srv.RefreshLoop(ctx, *refresh, refresher)
	}
	serveErr := obs.Serve(ctx, l, srv.Handler())
	if err := writeTrace(obsrv, *tracePath); err != nil {
		return err
	}
	return serveErr
}

// openSurface is how a daemon exposes an HTTP surface: listen on addr and
// print "<what> on http://<addr><detail>" followed by one probe URL per
// endpoint. The caller hands the listener to obs.Serve.
func openSurface(addr, what, detail string, endpoints []string) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s on http://%s%s\n", what, l.Addr(), detail)
	for _, ep := range endpoints {
		fmt.Printf("  http://%s%s\n", l.Addr(), ep)
	}
	return l, nil
}
