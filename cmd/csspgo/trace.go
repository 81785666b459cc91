package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"csspgo/internal/obs"
)

// cmdTrace works with Chrome trace-event exports: stitch N per-process
// traces (one per `csspgo serve` / `csspgo fleet` run) into a single
// causally-linked fleet trace, or validate one file's link structure. Each
// input is parsed once; the stitcher reassigns each input to its own pid
// and then validates the merged trace in memory: every parent_span_id must
// resolve — a broken cross-process link is an error, not a warning.
// -require-ancestor additionally asserts a causal chain (e.g. every
// serve-side handler span must descend from the aggregator's round span),
// which is how the `make check` observability lane proves the fleet trace
// is really stitched and not just concatenated.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	stitch := fs.String("stitch", "", "merge the input traces into this output file")
	minCross := fs.Int("min-cross-links", 1, "cross-process parent links -stitch requires in the merged trace")
	ancestors := multiFlag{}
	fs.Var(&ancestors, "require-ancestor", "assert span=ancestor causality (every span named <span> must have an <ancestor> on its parent chain; repeatable)")
	_ = fs.Parse(args)

	reqs := make([][2]string, 0, len(ancestors))
	for _, spec := range ancestors {
		span, anc, ok := strings.Cut(spec, "=")
		if !ok || span == "" || anc == "" {
			return fmt.Errorf("trace: -require-ancestor wants <span>=<ancestor>, got %q", spec)
		}
		reqs = append(reqs, [2]string{span, anc})
	}

	if fs.NArg() == 0 {
		return fmt.Errorf("trace: no input traces (use -stitch OUT in1.json in2.json... or pass files to validate)")
	}
	traces := make([]*obs.ChromeTrace, fs.NArg())
	for i, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if traces[i], err = obs.ParseChromeTrace(data); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	// check is what both modes ask of a trace: its parent links resolve, at
	// least minCross of them cross a process, and every -require-ancestor
	// chain holds.
	check := func(ct *obs.ChromeTrace, minCross int) (obs.StitchStats, error) {
		stats, err := ct.Links(minCross)
		if err != nil {
			return stats, err
		}
		for _, r := range reqs {
			if err := ct.RequireAncestor(r[0], r[1]); err != nil {
				return stats, err
			}
		}
		return stats, nil
	}

	if *stitch != "" {
		if fs.NArg() < 2 {
			return fmt.Errorf("trace: -stitch wants >= 2 input traces, got %d", fs.NArg())
		}
		merged := obs.StitchChromeTraces(traces)
		stats, err := check(merged, *minCross)
		if err != nil {
			return err
		}
		data, err := merged.Encode()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*stitch, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("stitched %d traces into %s: %d spans, %d links (%d cross-process), span names: %s\n",
			fs.NArg(), *stitch, stats.Spans, stats.Links, stats.CrossProcessLinks, strings.Join(merged.SpanNames(), ", "))
		return nil
	}

	// Validation mode: check each input independently (single-process traces
	// need no cross-links, so the floor is 0 unless overridden).
	floor := 0
	if *minCross > 1 {
		floor = *minCross
	}
	for i, path := range fs.Args() {
		stats, err := check(traces[i], floor)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("%s: valid trace: %d spans, %d links (%d cross-process)\n",
			path, stats.Spans, stats.Links, stats.CrossProcessLinks)
	}
	return nil
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }
