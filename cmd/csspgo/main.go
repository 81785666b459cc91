// Command csspgo is the compiler driver: it builds MiniLang programs under
// any PGO variant, runs them on the simulator, collects profiles, and runs
// the offline pre-inliner — the same workflow the paper's production
// deployment automates.
//
// Usage:
//
//	csspgo build   -o app.bin [-probes] [-instrument] [-profile p.prof] [-preinline] [-checked] [-stale-matching] [-trace t.json] [-report r.json] src.ml...
//	csspgo run     -bin app.bin [-args 100,7] [-n 50 -seed 1 -bound 1000] [-stats]
//	csspgo profile -bin app.bin -o app.prof -kind cs|probe|autofdo|instr [-n 200 -seed 1 -bound 1000] [-period 797] [-workers N] [-v] [-trace t.json] [-report r.json]
//	csspgo preinline -bin app.bin -profile app.prof -o app.prof
//	csspgo inspect -bin app.bin | -profile app.prof [-folded | -top N | -coverage -bin app.bin] [-json] | -diff old.prof new.prof [-json]
//	csspgo lint    [-profile p.prof] [-probes] [-verify-each] [-tv [-inject kind@pass [-inject-seed N]]] [-stale-matching] [-json] src.ml...
//	csspgo report  a.json [b.json] | csspgo report -diff [-threshold PCT] a.json b.json | csspgo report -validate [-min-spans N] artifact...
//	csspgo overhead -bin app.bin [-profile app.prof] [-n 200 -seed 1 -bound 1000] [-period 797] [-top 10] [-budget PCT] [-json] [-o overhead.json]
//	csspgo serve   -addr :8572 [-workload hhvm -scale 1 | src.ml... [-n 60 -seed 1 -bound 1000]] [-name NAME] [-refresh 30s] [-period 797] [-workers N] [-trace t.json] [-overhead-budget PCT]
//	csspgo fleet   -o fleet.prof [-rounds 1 -interval 30s] [-timeout 2s -retries 2] [-quota N -freshness 5m] [-min-overlap 0.5] [-weights 1,2,...] [-inject poison-counts] [-report r.json] [-trace t.json -journal j.jsonl -timeseries ts.json -status-addr :8573] url...
//	csspgo trace   -stitch fleet.json [-min-cross-links 1] [-require-ancestor span=ancestor] t1.json t2.json... | csspgo trace [-require-ancestor span=ancestor] t.json...
//
// -trace writes Chrome trace-event JSON (load it in chrome://tracing or
// Perfetto); -report writes a machine-readable run manifest that `csspgo
// report` pretty-prints or diffs. `csspgo report -validate` checks any
// artifact this tool writes — run report, time series, overhead ledger,
// Chrome trace, event journal — picking the schema from the file itself.
// `csspgo trace -stitch` merges per-process trace exports into one
// causally-linked fleet trace, resolving traceparent-propagated parent links
// across process boundaries.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"csspgo/internal/machine"
	"csspgo/internal/obs"
	"csspgo/internal/opt"
	"csspgo/internal/pgo"
	"csspgo/internal/profdata"
	"csspgo/internal/sampling"
	"csspgo/internal/sim"
	"csspgo/internal/source"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = cmdBuild(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "preinline":
		err = cmdPreinline(os.Args[2:])
	case "merge":
		err = cmdMerge(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "lint":
		err = cmdLint(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "overhead":
		err = cmdOverhead(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "fleet":
		err = cmdFleet(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "csspgo: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: csspgo <build|run|profile|preinline|merge|inspect|lint|report|overhead|serve|fleet|trace> [flags]")
	os.Exit(2)
}

// cmdMerge merges profiles from multiple profiling shards (the continuous
// production-profiling aggregation step).
func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	out := fs.String("o", "merged.prof", "output profile path")
	_ = fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("merge: no input profiles")
	}
	var merged *profdata.Profile
	for _, path := range fs.Args() {
		prof, err := loadProfile(path)
		if err != nil {
			return fmt.Errorf("merge %s: %w", path, err)
		}
		if merged == nil {
			merged = prof
			continue
		}
		if prof.Kind != merged.Kind {
			return fmt.Errorf("merge %s: profile kind mismatch", path)
		}
		profdata.MergeProfiles(merged, prof)
	}
	if err := os.WriteFile(*out, profdata.AppendText(nil, merged), 0o644); err != nil {
		return err
	}
	fmt.Printf("merged %d profiles into %s: %s\n", fs.NArg(), *out, merged)
	return nil
}

func parseFiles(paths []string) ([]*source.File, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("no source files")
	}
	var files []*source.File
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		f, err := source.Parse(path, string(data))
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func loadBin(path string) (*machine.Prog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return machine.ReadProg(f)
}

func loadProfile(path string) (*profdata.Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return profdata.Decode(data)
}

// requests builds the run/profiling request stream from flags.
func requests(args string, n int, seed, bound int64) [][]int64 {
	if args != "" {
		parts := strings.Split(args, ",")
		req := make([]int64, 0, len(parts))
		for _, p := range parts {
			v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad arg %q\n", p)
				os.Exit(2)
			}
			req = append(req, v)
		}
		return [][]int64{req}
	}
	return pgo.SeededRequests(n, seed, bound)
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	out := fs.String("o", "app.bin", "output binary path")
	probes := fs.Bool("probes", false, "insert pseudo-probes")
	instrument := fs.Bool("instrument", false, "materialize probes as counters (Instr PGO training)")
	profPath := fs.String("profile", "", "input profile (text format)")
	preinl := fs.Bool("preinline", false, "honor pre-inliner decisions in the profile")
	checked := fs.Bool("checked", false, "checked build: verify IR invariants and translation-validate every pass boundary; the first violation aborts the build naming the pass")
	staleMatch := fs.Bool("stale-matching", false, "recover stale function profiles via anchor matching instead of dropping them")
	tracePath := fs.String("trace", "", "write Chrome trace-event JSON of the build pipeline")
	reportPath := fs.String("report", "", "write a machine-readable run manifest (JSON)")
	_ = fs.Parse(args)

	obsrv := pgo.NewRunObserver()
	psp := obsrv.Trace.Span("parse", obs.A("files", fs.NArg()))
	files, err := parseFiles(fs.Args())
	psp.End()
	if err != nil {
		return err
	}
	cfg := pgo.BuildConfig{
		Probes:                *probes || *instrument,
		Instrument:            *instrument,
		UsePreInlineDecisions: *preinl,
		VerifyEach:            *checked,
		ValidateSemantics:     *checked,
		StaleMatching:         *staleMatch,
	}
	obsrv.ObserveBuild(&cfg)
	if *profPath != "" {
		lsp := obsrv.Trace.Span("load_profile")
		prof, err := loadProfile(*profPath)
		lsp.End()
		if err != nil {
			return err
		}
		cfg.Profile = prof
	}
	res, err := pgo.Build(files, cfg)
	if err != nil {
		var pv *opt.PassViolation
		if errors.As(err, &pv) {
			fmt.Fprintln(os.Stderr, pv.Report())
			return fmt.Errorf("build: checked build failed after pass %q", pv.Pass)
		}
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := res.Bin.Save(f); err != nil {
		return err
	}
	fmt.Printf("built %s: %s\n", *out, res.Bin)
	fmt.Printf("pipeline: %+v\n", *res.Stats)
	if *staleMatch {
		printLadder(res.Stats)
	}
	return writeObservability(obsrv, "csspgo build", pgo.BuildConfigEcho(cfg), *tracePath, *reportPath)
}

// writeObservability flushes a run's trace and manifest to the paths the
// -trace/-report flags named (either may be empty).
func writeObservability(o *pgo.RunObserver, tool string, config map[string]any, tracePath, reportPath string) error {
	if err := writeTrace(o.Trace, tracePath); err != nil {
		return err
	}
	if reportPath != "" {
		if err := obs.WriteFile(reportPath, o.Report(tool, config)); err != nil {
			return err
		}
		fmt.Printf("wrote report %s\n", reportPath)
	}
	return nil
}

// writeTrace writes t as Chrome trace-event JSON to the path a -trace flag
// named (empty = no trace wanted).
func writeTrace(t *obs.Trace, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote trace %s\n", path)
	return nil
}

// printLadder summarizes where stale profiles landed on the degradation
// ladder (exact matches never enter it and are not listed).
func printLadder(st *opt.Stats) {
	dropped := st.StaleFuncs - st.MatchedFuncs - st.FlatFallbackFuncs
	fmt.Printf("degradation ladder: %d stale func(s): %d anchor-matched (mean quality %.2f, %d probes transferred), %d flat-fallback, %d dropped; %d context(s) remapped\n",
		st.StaleFuncs, st.MatchedFuncs, st.MatchQuality, st.RecoveredProbes,
		st.FlatFallbackFuncs, dropped, st.MatchedContexts)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	binPath := fs.String("bin", "app.bin", "binary path")
	argStr := fs.String("args", "", "comma-separated args for one run of main")
	n := fs.Int("n", 20, "generated request count (when -args absent)")
	seed := fs.Int64("seed", 1, "request generator seed")
	bound := fs.Int64("bound", 1000, "request magnitude bound")
	stats := fs.Bool("stats", false, "print execution statistics")
	_ = fs.Parse(args)

	bin, err := loadBin(*binPath)
	if err != nil {
		return err
	}
	m := sim.New(bin, sim.DefaultCostParams(), sim.PMUConfig{})
	for _, req := range requests(*argStr, *n, *seed, *bound) {
		v, err := m.Run(req...)
		if err != nil {
			return err
		}
		fmt.Printf("main(%v) = %d\n", req, v)
	}
	if *stats {
		fmt.Printf("stats: %+v\n", m.Stats())
	}
	return nil
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	binPath := fs.String("bin", "app.bin", "training binary path")
	out := fs.String("o", "app.prof", "output profile path")
	kind := fs.String("kind", "cs", "profile kind: cs|probe|autofdo|instr")
	n := fs.Int("n", 200, "training request count")
	seed := fs.Int64("seed", 1, "request generator seed")
	bound := fs.Int64("bound", 1000, "request magnitude bound")
	period := fs.Uint64("period", 797, "sampling period (taken branches)")
	pebs := fs.Bool("pebs", true, "precise sampling (synchronized stacks)")
	workers := fs.Int("workers", 0, "profile-generation worker pool size (0 = GOMAXPROCS, 1 = serial; output is byte-identical for any value)")
	verbose := fs.Bool("v", false, "print an unwinder/sampling statistics summary")
	tracePath := fs.String("trace", "", "write Chrome trace-event JSON of profile generation")
	reportPath := fs.String("report", "", "write a machine-readable run manifest (JSON)")
	_ = fs.Parse(args)

	if err := sampling.ValidateWorkers(*workers); err != nil {
		return err
	}
	variant, err := pgo.ParseProfileKind(*kind)
	if err != nil {
		return err
	}
	obsrv := pgo.NewRunObserver()
	bin, err := loadBin(*binPath)
	if err != nil {
		return err
	}
	pc := pgo.DefaultProfileConfig()
	pc.Period, pc.PEBS, pc.Workers = *period, *pebs, *workers
	obsrv.ObserveProfile(&pc)
	prof, unwind, stats, err := pgo.CollectAndGenerate(bin, variant, requests("", *n, *seed, *bound), pc)
	if err != nil {
		return err
	}
	if *verbose {
		if variant == pgo.FullCS {
			fmt.Println(unwind.Summary())
		}
		if variant == pgo.InstrPGO {
			fmt.Printf("sim: %+v\n", stats)
		}
	}
	text := profdata.AppendText(nil, prof)
	if err := os.WriteFile(*out, text, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s (%d bytes)\n", *out, prof, len(text))
	// The echo records the run's semantic inputs, not its execution strategy:
	// -workers changes wall time only, so manifests from different machine
	// parallelism stay diffable.
	echo := map[string]any{
		"kind": *kind, "n": *n, "seed": *seed, "bound": *bound,
		"period": *period, "pebs": *pebs,
	}
	return writeObservability(obsrv, "csspgo profile", echo, *tracePath, *reportPath)
}

func cmdPreinline(args []string) error {
	fs := flag.NewFlagSet("preinline", flag.ExitOnError)
	binPath := fs.String("bin", "app.bin", "profiled binary (for size extraction)")
	profPath := fs.String("profile", "app.prof", "context-sensitive profile")
	out := fs.String("o", "app.prof", "output profile path")
	trim := fs.Uint64("trim", 0, "cold-context trim threshold (0 = auto)")
	_ = fs.Parse(args)

	bin, err := loadBin(*binPath)
	if err != nil {
		return err
	}
	prof, err := loadProfile(*profPath)
	if err != nil {
		return err
	}
	if !prof.CS {
		return fmt.Errorf("profile is not context-sensitive")
	}
	trimmed, res := pgo.TrimAndPreInline(prof, bin, *trim)
	if err := os.WriteFile(*out, profdata.AppendText(nil, prof), 0o644); err != nil {
		return err
	}
	fmt.Printf("trimmed %d cold contexts; pre-inliner marked %d, promoted %d; wrote %s\n",
		trimmed, res.Inlined, res.Promoted, *out)
	return nil
}
