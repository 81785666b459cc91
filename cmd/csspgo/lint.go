package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"csspgo/internal/analysis"
	"csspgo/internal/analysis/tv"
	"csspgo/internal/ir"
	"csspgo/internal/opt"
	"csspgo/internal/pgo"
)

// lintReport is the machine-readable output of `csspgo lint -json`.
type lintReport struct {
	Errors      int                   `json:"errors"`
	Warnings    int                   `json:"warnings"`
	Diagnostics []analysis.Diagnostic `json:"diagnostics"`
	Violation   *lintPassViolation    `json:"passViolation,omitempty"`
}

// lintPassViolation serializes an opt.PassViolation.
type lintPassViolation struct {
	Pass  string                `json:"pass"`
	Func  string                `json:"func"`
	Diags []analysis.Diagnostic `json:"diagnostics"`
	Diff  string                `json:"irDiff"`
}

// cmdLint builds the sources under the checked pipeline and runs the full
// analysis suite: dominator/dataflow lints (use-before-def, unreachable
// blocks), flow conservation on the inferred profile, probe placement, and
// profile linting against the pristine probed IR. Diagnostics carry a
// severity and, for pipeline violations, the name of the offending pass.
func cmdLint(args []string) error {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	profPath := fs.String("profile", "", "profile to lint and build with (text format)")
	probes := fs.Bool("probes", true, "insert pseudo-probes before the pipeline")
	preinl := fs.Bool("preinline", false, "honor pre-inliner decisions in the profile")
	verifyEach := fs.Bool("verify-each", true, "check IR invariants after every pass")
	tvMode := fs.Bool("tv", false, "translation validation: prove every pass boundary semantically equivalent (effect analysis, CFG bisimulation, differential-execution oracle)")
	inject := fs.String("inject", "", "miscompile-injection harness: corrupt the program as <kind>@<pass> and expect -tv to attribute it (kinds: "+strings.Join(tv.InjectionNames(), ", ")+")")
	injectSeed := fs.Uint64("inject-seed", 1, "injection site selection seed")
	staleMatch := fs.Bool("stale-matching", false, "build with anchor matching and report each stale function's rung on the degradation ladder")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON diagnostics")
	_ = fs.Parse(args)

	files, err := parseFiles(fs.Args())
	if err != nil {
		return err
	}
	cfg := pgo.BuildConfig{
		Probes:                *probes,
		UsePreInlineDecisions: *preinl,
		VerifyEach:            *verifyEach,
		ValidateSemantics:     *tvMode,
		StaleMatching:         *staleMatch,
	}
	var injectDesc string
	if *inject != "" {
		kindName, passName, ok := strings.Cut(*inject, "@")
		if !ok {
			return fmt.Errorf("lint: -inject wants <kind>@<pass>, got %q", *inject)
		}
		kind, err := tv.ParseInjection(kindName)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		if !passRegistered(passName) {
			return fmt.Errorf("lint: -inject: unknown pass %q (registered: %s)", passName, strings.Join(opt.PassNames(), ", "))
		}
		cfg.InjectAfter = map[string]func(*ir.Program){passName: func(p *ir.Program) {
			if d, applied := tv.Apply(p, kind, *injectSeed); applied {
				injectDesc = d
			}
		}}
	}
	if *profPath != "" {
		prof, err := loadProfile(*profPath)
		if err != nil {
			return err
		}
		cfg.Profile = prof
	}

	rep := lintReport{Diagnostics: []analysis.Diagnostic{}}
	res, err := pgo.Build(files, cfg)
	if err != nil {
		var pv *opt.PassViolation
		if !errors.As(err, &pv) {
			return err
		}
		rep.Violation = &lintPassViolation{
			Pass: pv.Pass, Func: pv.Func, Diags: pv.Diags, Diff: pv.Diff(),
		}
		rep.Diagnostics = append(rep.Diagnostics, pv.Diags...)
	} else {
		// Lint the profile against the pristine probed IR (checksums and
		// probe allocations as they were at collection time), then the
		// optimized program itself.
		if cfg.Profile != nil {
			rep.Diagnostics = append(rep.Diagnostics, analysis.CheckProfile(cfg.Profile, res.FreshIR)...)
			if *staleMatch {
				rep.Diagnostics = append(rep.Diagnostics,
					analysis.CheckStaleMatching(cfg.Profile, res.FreshIR)...)
			}
		}
		opts := analysis.DefaultOptions()
		opts.Flow = cfg.Profile != nil // inference ran last, so flow must hold
		opts.Probes = *probes
		rep.Diagnostics = append(rep.Diagnostics, analysis.CheckProgram(res.IR, opts)...)
	}
	// Deterministic output: identical findings collapse and the rest sort by
	// function/pass/check, so runs are byte-comparable in text and JSON alike.
	rep.Diagnostics = analysis.DedupDiagnostics(rep.Diagnostics)
	analysis.SortDiagnostics(rep.Diagnostics)
	if rep.Violation != nil {
		analysis.SortDiagnostics(rep.Violation.Diags)
	}
	for _, d := range rep.Diagnostics {
		switch d.Sev {
		case analysis.SevError:
			rep.Errors++
		case analysis.SevWarning:
			rep.Warnings++
		}
	}
	if *inject != "" {
		if injectDesc == "" {
			return fmt.Errorf("lint: -inject %s: no injection site found", *inject)
		}
		fmt.Fprintf(os.Stderr, "injected: %s\n", injectDesc)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		if rep.Violation != nil {
			fmt.Printf("pass %q broke function %s:\n", rep.Violation.Pass, rep.Violation.Func)
			for _, d := range rep.Violation.Diags {
				fmt.Printf("  %s\n", d)
			}
			fmt.Println("IR diff (before/after the pass):")
			fmt.Print(rep.Violation.Diff)
		} else {
			for _, d := range rep.Diagnostics {
				fmt.Println(d)
			}
			if *staleMatch && rep.Violation == nil {
				printLadder(res.Stats)
			}
		}
		fmt.Printf("lint: %d error(s), %d warning(s)\n", rep.Errors, rep.Warnings)
	}
	if rep.Errors > 0 {
		return fmt.Errorf("lint: %d error(s)", rep.Errors)
	}
	if injectDesc != "" {
		// The harness contract: an injected miscompile that survives the
		// validator is a false negative and must fail loudly.
		return fmt.Errorf("lint: injected miscompile went undetected (%s)", injectDesc)
	}
	return nil
}

// passRegistered reports whether name is a registered optimization pass.
func passRegistered(name string) bool {
	for _, n := range opt.PassNames() {
		if n == name {
			return true
		}
	}
	return false
}
