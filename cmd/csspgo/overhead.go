package main

import (
	"flag"
	"fmt"
	"os"

	"csspgo/internal/obs"
	"csspgo/internal/overhead"
	"csspgo/internal/pgo"
)

// cmdOverhead runs the cost-and-confidence observatory on a binary: one
// metered run under the profiling cost model (sampling interrupts cost
// cycles), attributing every profiling-machinery cycle per probe and per
// function, plus a confidence heatmap of the profile that run produced.
// With -budget it is a CI gate: overhead beyond the budget exits 2 (the
// `report -diff` convention), distinct from exit 1 operational errors.
// With -validate it checks an existing csspgo-overhead/v1 artifact instead.
func cmdOverhead(args []string) error {
	fs := flag.NewFlagSet("overhead", flag.ExitOnError)
	bin := fs.String("bin", "", "binary to meter")
	profPath := fs.String("profile", "", "score confidence against this profile instead of the one collected by the metered run")
	out := fs.String("o", "", "write the normalized csspgo-overhead/v1 artifact here")
	n := fs.Int("n", 200, "request count")
	seed := fs.Int64("seed", 1, "request generator seed")
	bound := fs.Int64("bound", 1000, "request magnitude bound")
	reqArgs := fs.String("args", "", "explicit comma-separated request (overrides -n/-seed/-bound)")
	period := fs.Uint64("period", 797, "sampling period (taken branches)")
	top := fs.Int("top", 10, "rows per table in text output (0 = all)")
	budget := fs.Float64("budget", 0, "overhead budget in percent; exceeding it exits 2 (0 = no gate)")
	asJSON := fs.Bool("json", false, "print the artifact instead of text tables")
	_ = fs.Parse(args)

	if *bin == "" {
		return fmt.Errorf("overhead: -bin is required")
	}
	prog, err := loadBin(*bin)
	if err != nil {
		return err
	}
	pc := pgo.DefaultProfileConfig()
	pc.Period = *period
	rep, _, err := pgo.MeasureOverhead(prog, requests(*reqArgs, *n, *seed, *bound), pc)
	if err != nil {
		return err
	}
	if *profPath != "" {
		prof, err := loadProfile(*profPath)
		if err != nil {
			return err
		}
		rep.Confidence = overhead.Score(prog, prof, *period, 0, 0)
	}
	rep.Binary = *bin
	rep.Normalize()
	if err := rep.Validate(); err != nil {
		return err
	}
	if *out != "" {
		if err := obs.WriteFile(*out, rep); err != nil {
			return err
		}
		fmt.Printf("wrote overhead artifact %s\n", *out)
	}
	if *asJSON {
		data, err := rep.Encode()
		if err != nil {
			return err
		}
		os.Stdout.Write(data)
	} else {
		fmt.Print(rep.Format(*top))
	}
	if *budget > 0 && rep.Totals.OverheadPct > *budget {
		// The CI gate: a blown overhead budget is an exit-code-2 failure,
		// distinct from exit 1 (operational errors), like `report -diff`.
		fmt.Fprintf(os.Stderr, "overhead: %.3f%% exceeds budget %.3f%%\n",
			rep.Totals.OverheadPct, *budget)
		os.Exit(2)
	}
	return nil
}
