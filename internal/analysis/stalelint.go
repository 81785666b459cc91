package analysis

import (
	"fmt"

	"csspgo/internal/ir"
	"csspgo/internal/profdata"
	"csspgo/internal/stale"
)

// CheckStaleMatching dry-runs the anchor matcher over every stale base
// profile and reports where each function will land on the degradation
// ladder when the build enables stale matching:
//
//   - matched (info): the matcher recovers the profile at or above the
//     acceptance threshold;
//   - below threshold (warning): anchors align too poorly, so the counts
//     degrade to the flat fallback — hot functions losing their shape this
//     way deserve a re-profile;
//   - unmatchable (warning): the function no longer exists or has no
//     probes, so its profile is dropped outright.
//
// Exact-checksum functions are skipped: they never enter the matcher. prog
// must be the pristine probed program the profile would annotate.
func CheckStaleMatching(prof *profdata.Profile, prog *ir.Program) []Diagnostic {
	var diags []Diagnostic
	add := func(sev Severity, format string, args ...interface{}) {
		diags = append(diags, Diagnostic{
			Sev: sev, Check: "stale-match", Block: -1, Msg: fmt.Sprintf(format, args...),
		})
	}

	m := stale.NewMatcher()
	matched, belowThreshold, dropped := 0, 0, 0
	classify := func(what string, f *ir.Function, fp *profdata.FunctionProfile) {
		res := m.Match(f, fp)
		switch {
		case res.OK:
			matched++
			add(sevInfo, "%s: stale profile recoverable — quality %.2f (%d/%d anchors, %d probes transfer)",
				what, res.Quality, res.MatchedAnchors, res.OldAnchors, res.RecoveredProbes)
		case res.OldAnchors == 0 || res.NewAnchors == 0:
			dropped++
			add(SevWarning, "%s: stale profile has no usable anchors; profile will be dropped", what)
		default:
			belowThreshold++
			add(SevWarning, "%s: match quality %.2f below threshold %.2f (%d/%d anchors) — counts degrade to the flat fallback",
				what, res.Quality, stale.MinQuality, res.MatchedAnchors, res.OldAnchors)
		}
	}
	for _, name := range prof.SortedFuncNames() {
		fp := prof.Funcs[name]
		f := prog.Funcs[name]
		if f == nil {
			if _, wasInlined := prog.DroppedChecksums[name]; !wasInlined {
				dropped++
				add(SevWarning, "func %s: no longer in the program; profile will be dropped", name)
			}
			continue
		}
		if fp.Checksum == 0 || f.Checksum == 0 || fp.Checksum == f.Checksum {
			continue // exact match, matcher never runs
		}
		classify(fmt.Sprintf("func %s", name), f, fp)
	}
	// CS profiles carry their checksums on contexts; base entries often
	// have none. The CS sample inliner walks the same ladder per context,
	// so dry-run those too (a missing leaf is already reported above).
	for _, key := range prof.SortedContextKeys() {
		cp := prof.Contexts[key]
		f := prog.Funcs[cp.Name]
		if f == nil || cp.Checksum == 0 || f.Checksum == 0 || cp.Checksum == f.Checksum {
			continue
		}
		classify(fmt.Sprintf("context %q", key), f, cp)
	}
	if matched+belowThreshold+dropped > 0 {
		add(sevInfo, "degradation ladder: %d anchor-matched, %d flat-fallback, %d dropped (threshold %.2f)",
			matched, belowThreshold, dropped, stale.MinQuality)
	}
	return diags
}
