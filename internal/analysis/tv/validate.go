package tv

import (
	"fmt"

	"csspgo/internal/analysis"
	"csspgo/internal/ir"
)

// Mode is the semantic contract a pass registered under — it selects how
// much of the validator runs at that pass's boundary.
type Mode uint8

// Validation modes.
const (
	// ModeStructural: the pass may delete dead code and reorder or re-mark
	// blocks but must preserve every block's I/O behavior — effect-summary
	// equality, CFG bisimulation and the oracle all run.
	ModeStructural Mode = iota
	// ModeRestructure: the pass may rewrite the CFG wholesale (inlining,
	// unrolling, if-conversion, ...) — effect-growth checks and the oracle
	// run; block-level bisimulation would reject legal rewrites.
	ModeRestructure
)

// Stats counts validator work for the analysis.tv.* metrics.
type Stats struct {
	PassesValidated int
	OracleRuns      int
	BisimFuncs      int
	Violations      int
}

// Validator holds the shared execution context, corpus, and the last
// accepted program state (the "before" of the next pass boundary), so each
// boundary costs one fresh set of oracle runs instead of two.
type Validator struct {
	Stats Stats

	ctx     *execContext
	corpus  [][]int64
	base    *ir.Program // clone of the last validated state
	baseRes []RunResult
	baseEff map[string]*funcEffects
}

// NewValidator snapshots p as the initial baseline and runs the oracle on
// it.
func NewValidator(p *ir.Program) *Validator {
	v := &Validator{ctx: newExecContext(p)}
	arity := 0
	if main := p.Funcs["main"]; main != nil {
		arity = len(main.Params)
	}
	v.corpus = makeCorpus(arity)
	v.accept(p)
	return v
}

// accept snapshots p as the new baseline.
func (v *Validator) accept(p *ir.Program) {
	v.base = ir.CloneProgram(p)
	v.baseRes = v.ctx.runCorpus(v.base, v.corpus)
	v.Stats.OracleRuns += len(v.corpus)
	v.baseEff = analyzeProgram(v.base)
}

// BaselineIR returns the last accepted snapshot of the named function as
// printed IR ("" if it did not exist), for violation reports.
func (v *Validator) BaselineIR(fn string) string {
	if f := v.base.Funcs[fn]; f != nil {
		return f.String()
	}
	return ""
}

// ValidatePass proves the transition from the last accepted state to
// `after` semantically equivalent under the pass's contract. On success the
// after state becomes the new baseline and nil is returned; on failure the
// error diagnostics come back (Pass left blank — the caller attributes)
// and the baseline stays put.
func (v *Validator) ValidatePass(pass string, after *ir.Program, mode Mode) []analysis.Diagnostic {
	v.Stats.PassesValidated++
	var diags []analysis.Diagnostic

	// Tier 1: effect analysis. Observable-effect growth is illegal for
	// every pass: probe handling must be invisible, and no transformation
	// may invent stores or counters.
	afterEff := analyzeProgram(after)
	diags = append(diags, v.checkEffects(after, afterEff, mode)...)

	// Tier 2: CFG bisimulation, block-for-block, for structure-preserving
	// passes.
	if mode == ModeStructural {
		for _, f := range after.Functions() {
			bf := v.base.Funcs[f.Name]
			if bf == nil {
				diags = append(diags, analysis.Diagnostic{
					Sev: analysis.SevError, Check: "tv-bisim", Func: f.Name, Block: -1,
					Msg: fmt.Sprintf("pass %q introduced a function out of nowhere", pass),
				})
				continue
			}
			v.Stats.BisimFuncs++
			diags = append(diags, diffFunctions(bf, f)...)
		}
	}

	// Tier 3: the differential-execution oracle.
	afterRes := v.ctx.runCorpus(after, v.corpus)
	v.Stats.OracleRuns += len(v.corpus)
	diags = append(diags, compareRuns(v.corpus, v.baseRes, afterRes)...)

	if analysis.ErrorCount(diags) > 0 {
		v.Stats.Violations += analysis.ErrorCount(diags)
		return diags
	}
	// Clean boundary: this after-state is the next boundary's before-state.
	v.base = ir.CloneProgram(after)
	v.baseRes = afterRes
	v.baseEff = afterEff
	return nil
}

// checkEffects compares effect summaries across the boundary. In both modes
// the program's transitive observable footprint from main may not grow; in
// structural mode each surviving function's own observable summary must be
// preserved exactly (reads excluded: deleting a dead load is legal and
// unobservable).
func (v *Validator) checkEffects(after *ir.Program, afterEff map[string]*funcEffects, mode Mode) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	emit := func(fn, format string, a ...any) {
		diags = append(diags, analysis.Diagnostic{
			Sev: analysis.SevError, Check: "tv-effects", Func: fn, Block: -1,
			Msg: fmt.Sprintf(format, a...),
		})
	}

	bm, am := v.baseEff["main"], afterEff["main"]
	if bm != nil && am != nil {
		if am.All && !bm.All {
			emit("main", "program gained an indirect call with statically unbounded effects")
		}
		if !bm.All {
			for _, g := range am.writeSet() {
				if !bm.Writes[g] {
					emit("main", "program gained an observable store to global %q", g)
				}
			}
			if am.Mask&effCounter != 0 && bm.Mask&effCounter == 0 {
				emit("main", "program gained an instrumentation counter increment (probe materialized with a real side effect?)")
			}
		}
	}

	if mode != ModeStructural {
		return diags
	}
	for _, f := range after.Functions() {
		be, ae := v.baseEff[f.Name], afterEff[f.Name]
		if be == nil || ae == nil {
			continue // function-set changes are tier 2's department
		}
		if ae.All != be.All {
			emit(f.Name, "indirect-call effect changed: All=%v before, All=%v after", be.All, ae.All)
			continue
		}
		obsMask := effWriteGlobal | effCounter | effICall
		if ae.Mask&obsMask != be.Mask&obsMask {
			emit(f.Name, "observable effect mask changed: %03b before, %03b after",
				be.Mask&obsMask, ae.Mask&obsMask)
		}
		bw, aw := be.writeSet(), ae.writeSet()
		if fmt.Sprint(bw) != fmt.Sprint(aw) {
			emit(f.Name, "may-write set changed: %v before, %v after", bw, aw)
		}
	}
	return diags
}
