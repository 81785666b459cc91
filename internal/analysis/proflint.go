package analysis

import (
	"fmt"

	"csspgo/internal/ir"
	"csspgo/internal/profdata"
)

// suspiciousCount flags counts so large they are almost certainly an
// unsigned underflow from profile-maintenance subtraction, the "negative
// count" class of corruption a uint64 representation cannot show directly.
const suspiciousCount = uint64(1) << 62

// CheckProfile lints a profile, optionally against the (pristine, probed)
// program it will annotate:
//
//   - internal consistency: TotalSamples matches the body-count sum, no
//     underflow-shaped counts, probe-keyed locations have IDs >= 1;
//   - context well-formedness: every context key parses, round-trips, and
//     agrees with the stored Context and leaf name;
//   - resolution: profiled functions, context frames and recorded callees
//     resolve to known functions (dropped fully-inlined functions are
//     recognized via DroppedChecksums);
//   - staleness: checksum mismatches against the program are reported, as
//     are probe IDs beyond the function's allocation.
//
// prog may be nil to lint a profile in isolation.
func CheckProfile(prof *profdata.Profile, prog *ir.Program) []Diagnostic {
	var diags []Diagnostic
	add := func(sev Severity, format string, args ...interface{}) {
		diags = append(diags, Diagnostic{
			Sev: sev, Check: "profile", Block: -1, Msg: fmt.Sprintf(format, args...),
		})
	}

	if !prof.CS && len(prof.Contexts) > 0 {
		add(SevError, "profile is flagged context-insensitive but carries %d context profiles", len(prof.Contexts))
	}

	known := func(name string) bool {
		if prog == nil {
			return true
		}
		if _, ok := prog.Funcs[name]; ok {
			return true
		}
		_, ok := prog.DroppedChecksums[name]
		return ok
	}

	checkFP := func(what string, fp *profdata.FunctionProfile) {
		if fp.Name == "" {
			add(SevError, "%s: profile with empty function name", what)
			return
		}
		var sum uint64
		for _, b := range fp.Blocks {
			sum += b.N
			if b.N >= suspiciousCount {
				add(SevError, "%s: count %d at %s looks like unsigned underflow", what, b.N, b.Loc)
			}
			if prof.Kind == profdata.ProbeBased && b.Loc.ID < 1 {
				add(SevError, "%s: probe-keyed location %s has id < 1", what, b.Loc)
			}
		}
		if sum != fp.TotalSamples {
			add(SevError, "%s: TotalSamples=%d but body counts sum to %d", what, fp.TotalSamples, sum)
		}
		if fp.HeadSamples >= suspiciousCount {
			add(SevError, "%s: head sample count %d looks like unsigned underflow", what, fp.HeadSamples)
		}
		for i, c := range fp.Calls {
			newSite := i == 0 || fp.Calls[i-1].Loc != c.Loc
			if newSite && prof.Kind == profdata.ProbeBased && c.Loc.ID < 1 {
				add(SevError, "%s: probe-keyed call site %s has id < 1", what, c.Loc)
			}
			if c.Callee == "" {
				add(SevError, "%s: call site %s records an empty callee name", what, c.Loc)
			} else if !known(c.Callee) {
				add(SevWarning, "%s: call site %s records unknown callee %q", what, c.Loc, c.Callee)
			}
			if c.N >= suspiciousCount {
				add(SevError, "%s: call count %d at %s->%s looks like unsigned underflow", what, c.N, c.Loc, c.Callee)
			}
		}
		if !known(fp.Name) {
			add(SevWarning, "%s: profiled function %q does not resolve in the program", what, fp.Name)
		}
		// Staleness: a checksum recorded at collection time that no longer
		// matches the function marks the profile stale; annotation will
		// reject it, so surface it as a warning, not an error.
		if prog != nil && prof.Kind == profdata.ProbeBased {
			if f := prog.Funcs[fp.Name]; f != nil {
				stale := fp.Checksum != 0 && f.Checksum != 0 && fp.Checksum != f.Checksum
				if stale {
					add(SevWarning, "%s: stale profile — CFG checksum %#x no longer matches the function's %#x", what, fp.Checksum, f.Checksum)
				}
				if !stale && f.NumProbes > 0 {
					for _, b := range fp.Blocks {
						if b.Loc.ID > f.NumProbes {
							add(SevError, "%s: probe id %d exceeds the function's %d allocated probes despite matching checksums", what, b.Loc.ID, f.NumProbes)
						}
					}
				}
			}
		}
	}

	for _, name := range prof.SortedFuncNames() {
		fp := prof.Funcs[name]
		checkFP(fmt.Sprintf("func %s", name), fp)
		if len(fp.Context) > 0 {
			add(SevError, "func %s: base profile carries a calling context %q", name, fp.Context.Key())
		}
	}

	for _, key := range prof.SortedContextKeys() {
		cp := prof.Contexts[key]
		what := fmt.Sprintf("context %q", key)
		parsed, err := profdata.ParseContext(key)
		if err != nil {
			add(SevError, "%s: malformed context key: %v", what, err)
			continue
		}
		if got := parsed.Key(); got != key {
			add(SevError, "%s: key does not round-trip (re-renders as %q)", what, got)
		}
		if !cp.Context.Equal(parsed) {
			add(SevError, "%s: stored context %q disagrees with its table key", what, cp.Context.Key())
		}
		if leaf := cp.Context.Leaf(); leaf != cp.Name {
			add(SevError, "%s: leaf %q disagrees with profile name %q", what, leaf, cp.Name)
		}
		for _, fr := range cp.Context {
			if !known(fr.Func) {
				add(SevWarning, "%s: frame %q does not resolve in the program", what, fr.Func)
			}
		}
		if prof.Kind == profdata.ProbeBased {
			for i, fr := range cp.Context {
				if i != len(cp.Context)-1 && fr.Site.ID < 1 {
					add(SevError, "%s: frame %q has call-site id < 1", what, fr.Func)
				}
			}
		}
		checkFP(what, cp)
	}
	return diags
}
