// Package analysis is a reusable static-analysis framework over the IR,
// plus the lint suite built on it: a generic forward dataflow solver over
// bit sets, reaching definitions and definite assignment powering a
// use-before-def lint, an unreachable-block lint (over ir's dominator
// tree), a flow-conservation (Kirchhoff) checker validating what profile
// inference claims to restore, a probe-placement lint, and a profile lint
// over profdata.Profile.
//
// The optimizer's checked pipeline mode (opt.Config.VerifyEach) runs this
// suite after every pass and attributes the first violation to the
// offending pass; the `csspgo lint` subcommand surfaces the same
// diagnostics on whole builds.
package analysis

import (
	"encoding/json"
	"fmt"
	"sort"

	"csspgo/internal/ir"
)

// Severity ranks a diagnostic. Only SevError diagnostics fail the checked
// pipeline mode: warnings mark coverage gaps and suspicious-but-legal IR
// (e.g. a tail-merged block without a block probe), which valid passes may
// produce mid-pipeline.
type Severity uint8

// Diagnostic severities.
const (
	sevInfo Severity = iota
	SevWarning
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	}
	return "info"
}

// MarshalJSON renders the severity as its name, keeping the machine-readable
// output stable if the enum values shift.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Diagnostic is one lint finding, carrying enough structure for pass
// attribution and machine-readable output.
type Diagnostic struct {
	Sev   Severity `json:"severity"`
	Check string   `json:"check"`          // which lint fired, e.g. "flow-conservation"
	Pass  string   `json:"pass,omitempty"` // offending pass (checked mode only)
	Func  string   `json:"func,omitempty"`
	Block int      `json:"block"` // block ID, or -1 when not block-scoped
	Msg   string   `json:"msg"`
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s[%s]", d.Sev, d.Check)
	if d.Pass != "" {
		s += fmt.Sprintf(" (after pass %s)", d.Pass)
	}
	if d.Func != "" {
		s += " " + d.Func
		if d.Block >= 0 {
			s += fmt.Sprintf(" b%d", d.Block)
		}
	}
	return s + ": " + d.Msg
}

// Options selects which checks run and how strictly.
type Options struct {
	// Flow enables the flow-conservation (Kirchhoff) checks. Only functions
	// whose reachable blocks are all annotated are checked, so it is safe to
	// leave on for mixed programs; it should only be enabled at points where
	// inference has (re)established consistency.
	Flow bool
	// FlowTol is the relative tolerance for the Kirchhoff equalities
	// (0 = exact, which is what inference guarantees).
	FlowTol float64
	// EntryTol is the relative tolerance for the entry-block-weight vs
	// EntryCount comparison; mismatches beyond it are warnings (sampled
	// head counts and inferred entry flow legitimately disagree a little).
	EntryTol float64
	// Probes enables the probe-placement lint (only meaningful on probed IR).
	Probes bool
}

// DefaultOptions returns the lint configuration used by `csspgo lint` and
// the checked pipeline: exact Kirchhoff equality, a loose entry-count bound.
func DefaultOptions() Options {
	return Options{Flow: true, FlowTol: 0, EntryTol: 0.5, Probes: true}
}

// CheckFunction runs every per-function lint on f and returns the findings:
// use-before-def, unreachable blocks, and (per opts) flow conservation and
// probe placement. f must be structurally valid (ir's Function.Verify);
// run that first.
func CheckFunction(f *ir.Function, opts Options) []Diagnostic {
	var diags []Diagnostic
	diags = append(diags, checkUnreachable(f, f.DomTree())...)
	diags = append(diags, checkUseBeforeDef(f)...)
	if opts.Flow {
		diags = append(diags, checkFlow(f, opts)...)
	}
	if opts.Probes {
		diags = append(diags, checkProbes(f)...)
	}
	return diags
}

// CheckProgram verifies structural invariants (Program.Verify) and runs
// CheckFunction over every function, in definition order. Every finding is
// attributed to its function (checks that report program-scoped findings
// keep Func empty), and findings reported identically by overlapping checks
// are deduplicated.
func CheckProgram(p *ir.Program, opts Options) []Diagnostic {
	var diags []Diagnostic
	if err := p.Verify(); err != nil {
		diags = append(diags, Diagnostic{Sev: SevError, Check: "structure", Block: -1, Msg: err.Error()})
	}
	for _, f := range p.Functions() {
		if err := f.Verify(); err != nil {
			// Function is not structurally sound; the lints assume a valid
			// CFG, so report and skip rather than risk a panic.
			diags = append(diags, Diagnostic{Sev: SevError, Check: "structure", Func: f.Name, Block: -1, Msg: err.Error()})
			continue
		}
		fd := CheckFunction(f, opts)
		for i := range fd {
			if fd[i].Func == "" {
				fd[i].Func = f.Name
			}
		}
		diags = append(diags, fd...)
	}
	return DedupDiagnostics(diags)
}

// diagKey is a Diagnostic's full identity, for dedup.
func diagKey(d Diagnostic) string {
	return fmt.Sprintf("%d\x00%s\x00%s\x00%s\x00%d\x00%s", d.Sev, d.Check, d.Pass, d.Func, d.Block, d.Msg)
}

// DedupDiagnostics removes exact duplicates (same severity, check, pass,
// function, block and message), preserving first-occurrence order —
// overlapping checks legitimately rediscover the same finding.
func DedupDiagnostics(diags []Diagnostic) []Diagnostic {
	seen := make(map[string]bool, len(diags))
	out := diags[:0]
	for _, d := range diags {
		k := diagKey(d)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, d)
	}
	return out
}

// SortDiagnostics orders findings deterministically for output: by function,
// then pass, check, block and message, with severity (errors first) breaking
// remaining ties. Reporting tools sort before printing so text and JSON
// output are stable across map-iteration orders.
func SortDiagnostics(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		if a.Sev != b.Sev {
			return a.Sev > b.Sev
		}
		return a.Msg < b.Msg
	})
}

// ErrorCount returns how many diagnostics are SevError.
func ErrorCount(diags []Diagnostic) int {
	n := 0
	for _, d := range diags {
		if d.Sev == SevError {
			n++
		}
	}
	return n
}

// FirstError returns the first SevError diagnostic, or nil.
func FirstError(diags []Diagnostic) *Diagnostic {
	for i := range diags {
		if diags[i].Sev == SevError {
			return &diags[i]
		}
	}
	return nil
}

// approxEq reports a ≈ b within relative tolerance tol (of the larger).
func approxEq(a, b uint64, tol float64) bool {
	if a == b {
		return true
	}
	hi, lo := a, b
	if lo > hi {
		hi, lo = lo, hi
	}
	return float64(hi-lo) <= tol*float64(hi)
}
