package opt

import (
	"fmt"
	"strings"
	"time"

	"csspgo/internal/analysis"
	"csspgo/internal/analysis/tv"
	"csspgo/internal/ir"
	"csspgo/internal/obs"
)

// PassViolation is the checked pipeline mode's failure report: the first
// pass after which the structural verifier or the analysis suite found an
// error, attributed to that pass and function, with IR snapshots from the
// last clean state and after the offending pass.
type PassViolation struct {
	Pass   string                // registered name of the offending pass
	Func   string                // function the violation was found in
	Diags  []analysis.Diagnostic // findings for that function (errors first)
	Before string                // function IR before the pass ("" if it did not exist)
	After  string                // function IR after the pass
}

// Error summarizes the violation on one line per finding.
func (v *PassViolation) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pass %q broke function %s: %d finding(s)", v.Pass, v.Func, len(v.Diags))
	for _, d := range v.Diags {
		sb.WriteString("\n  " + d.String())
	}
	return sb.String()
}

// Diff renders the before/after IR snapshot diff of the offending function.
func (v *PassViolation) Diff() string {
	return analysis.DiffLines(v.Before, v.After)
}

// Report renders the full human-readable report: attribution, findings and
// the IR diff.
func (v *PassViolation) Report() string {
	var sb strings.Builder
	sb.WriteString(v.Error())
	sb.WriteString("\nIR diff (before/after the pass):\n")
	sb.WriteString(v.Diff())
	return sb.String()
}

// checker implements Config.VerifyEach: after every registered pass it runs
// Function.Verify plus the analysis suite over the whole program and stops
// the pipeline at the first error-severity finding, keeping per-function IR
// snapshots from the last clean pass boundary for the report. With
// Config.ValidateSemantics it additionally runs the translation validator
// (internal/analysis/tv) at every boundary, under the pass's registered
// semantic contract.
type checker struct {
	p      *ir.Program
	cfg    *Config
	probed bool
	flowOK bool              // a restoring pass's flow guarantee is in force
	snaps  map[string]string // function name -> last clean IR snapshot
	tvv    *tv.Validator
}

func newChecker(p *ir.Program, cfg *Config) *checker {
	c := &checker{p: p, cfg: cfg, snaps: map[string]string{}}
	for _, f := range p.Functions() {
		if f.NumProbes > 0 {
			c.probed = true
		}
		c.snaps[f.Name] = f.String()
	}
	if cfg.ValidateSemantics {
		c.tvv = tv.NewValidator(p)
	}
	return c
}

// after verifies the program state following the named pass. On the first
// function with an error-severity finding it returns a *PassViolation;
// otherwise it refreshes the snapshots and returns nil.
func (c *checker) after(pass passID) error {
	switch pass.flow {
	case flowRestores:
		c.flowOK = true
	case flowPerturbs:
		c.flowOK = false
	}
	opts := analysis.DefaultOptions()
	opts.Flow = c.flowOK
	opts.Probes = c.probed

	for _, f := range c.p.Functions() {
		var diags []analysis.Diagnostic
		if err := f.Verify(); err != nil {
			diags = append(diags, analysis.Diagnostic{
				Sev: analysis.SevError, Check: "structure", Func: f.Name, Block: -1, Msg: err.Error(),
			})
		} else {
			diags = analysis.CheckFunction(f, opts)
		}
		if analysis.ErrorCount(diags) == 0 {
			continue
		}
		for i := range diags {
			diags[i].Pass = pass.name
		}
		return &PassViolation{
			Pass:   pass.name,
			Func:   f.Name,
			Diags:  diags,
			Before: c.snaps[f.Name],
			After:  f.String(),
		}
	}
	if err := c.validateSemantics(pass); err != nil {
		return err
	}
	for _, f := range c.p.Functions() {
		c.snaps[f.Name] = f.String()
	}
	return nil
}

// validateSemantics runs the translation validator at this pass boundary
// (no-op unless Config.ValidateSemantics), publishing its cost and verdict
// under the analysis.tv.* metrics and a "tv.<pass>" trace span.
func (c *checker) validateSemantics(pass passID) error {
	if c.tvv == nil {
		return nil
	}
	mode := tv.ModeRestructure
	if pass.sem == semStructural {
		mode = tv.ModeStructural
	}
	sp := c.cfg.Trace.Span("tv."+pass.name, obs.A("mode", modeName(mode)))
	before := c.tvv.Stats
	start := time.Now()
	diags := c.tvv.ValidatePass(pass.name, c.p, mode)
	elapsed := time.Since(start)
	sp.End()

	reg := c.cfg.Metrics
	reg.Histogram(obs.MTVValidateNS).Observe(elapsed.Nanoseconds())
	reg.Counter(obs.MTVPassesValidated).Add(1)
	reg.Counter(obs.MTVOracleRuns).Add(int64(c.tvv.Stats.OracleRuns - before.OracleRuns))
	if len(diags) == 0 {
		return nil
	}
	reg.Counter(obs.MTVViolations).Add(int64(analysis.ErrorCount(diags)))
	return NewPassViolation(pass.name, c.p, diags, func(fn string) string { return c.snaps[fn] })
}

// NewPassViolation reports the translation validator's findings at one pass
// boundary, in opt's pipeline or before it (probe insertion): it stamps
// every finding with the pass and attributes the violation to the first
// error's function (main when that finding names none), with the
// function's IR before the pass, as before returns it, and after, from p.
func NewPassViolation(pass string, p *ir.Program, diags []analysis.Diagnostic, before func(fn string) string) *PassViolation {
	for i := range diags {
		diags[i].Pass = pass
	}
	fn := "main"
	if e := analysis.FirstError(diags); e != nil && e.Func != "" {
		fn = e.Func
	}
	var after string
	if f := p.Funcs[fn]; f != nil {
		after = f.String()
	}
	return &PassViolation{Pass: pass, Func: fn, Diags: diags, Before: before(fn), After: after}
}

func modeName(m tv.Mode) string {
	if m == tv.ModeStructural {
		return "structural"
	}
	return "restructure"
}
