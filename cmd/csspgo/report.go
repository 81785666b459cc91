package main

import (
	"flag"
	"fmt"
	"os"

	"csspgo/internal/obs"
)

// cmdReport works with run manifests — pretty-print one, diff two (metric
// deltas with regression highlighting) — and, with -validate, checks any
// artifact csspgo writes against the schema the file itself declares (the
// `make check` observability lanes).
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	validate := fs.Bool("validate", false, "only validate the artifact(s): run report, time series, overhead ledger, Chrome trace or event journal, told apart by content")
	minSpans := fs.Int("min-spans", 1, "distinct span names -validate requires of a Chrome trace")
	diffGate := fs.Bool("diff", false, "diff two manifests and exit 2 if anything REGRESSED")
	threshold := fs.Float64("threshold", 100*obs.DefaultRegressionThreshold, "regression threshold in percent for -diff")
	_ = fs.Parse(args)

	if *validate {
		if fs.NArg() == 0 {
			return fmt.Errorf("report: -validate wants at least one artifact path")
		}
		for _, path := range fs.Args() {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			kind, err := obs.ValidateArtifact(data, *minSpans)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			fmt.Printf("%s: valid %s\n", path, kind)
		}
		return nil
	}

	switch fs.NArg() {
	case 1:
		rep, err := obs.ReadReport(fs.Arg(0))
		if err != nil {
			return err
		}
		fmt.Print(rep.Format())
		return nil
	case 2:
		a, err := obs.ReadReport(fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := obs.ReadReport(fs.Arg(1))
		if err != nil {
			return err
		}
		res := obs.DiffReportsThreshold(a, b, *threshold/100)
		fmt.Print(res.Text)
		if *diffGate && res.Regressions > 0 {
			// The CI gate: regressions are an exit-code-2 failure, distinct
			// from exit 1 (operational errors) so scripts can tell them apart.
			fmt.Fprintf(os.Stderr, "report: %d regression(s) beyond %.0f%%\n", res.Regressions, *threshold)
			os.Exit(2)
		}
		return nil
	default:
		return fmt.Errorf("report: want 1 manifest (pretty-print) or 2 (diff), got %d", fs.NArg())
	}
}
