package opt

import (
	"csspgo/internal/ir"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
	"csspgo/internal/stale"
)

// AnnotateStats reports annotation outcomes, including how far down the
// degradation ladder each stale function landed: exact checksum match →
// anchor-matched → flat fallback → dropped.
type AnnotateStats struct {
	Annotated int
	Stale     int // probe checksum mismatches detected (= Matched + FlatFallback + Dropped)
	NoProfile int

	Matched         int     // stale profiles recovered by the anchor matcher
	FlatFallback    int     // stale profiles degraded to a uniform flat annotation
	Dropped         int     // stale profiles discarded (matching disabled)
	RecoveredProbes int     // old probe IDs whose counts the matcher transferred
	QualitySum      float64 // sum of match qualities over Matched functions
}

// annotatePass: raw profile counts are not flow-conserved until inference.
var annotatePass = registerPass("annotate", flowPerturbs, semStructural)

// Annotate maps base (context-insensitive) function profiles onto the IR:
// block weights, entry counts. For probe-keyed profiles, blocks match by
// probe ID and a CFG-checksum mismatch rejects the whole function profile
// (stale after source drift — §III.A). For line-keyed profiles, blocks take
// the maximum count among their statements' line offsets; line profiles
// carry no checksum, so drifted profiles silently annotate wrong blocks —
// the failure mode pseudo-instrumentation eliminates.
func Annotate(p *ir.Program, prof *profdata.Profile) AnnotateStats {
	return annotateWithMatcher(p, prof, nil)
}

// annotateWithMatcher is Annotate with the degradation ladder enabled: a
// non-nil matcher lets stale probe-based profiles degrade to anchor-matched
// counts, and failing that to a flat (context- and position-insensitive)
// fallback, instead of being dropped.
func annotateWithMatcher(p *ir.Program, prof *profdata.Profile, m *stale.Matcher) AnnotateStats {
	var st AnnotateStats
	for _, f := range p.Functions() {
		fp := prof.Funcs[f.Name]
		if fp == nil || fp.TotalSamples == 0 && fp.HeadSamples == 0 {
			st.NoProfile++
			continue
		}
		if prof.Kind == profdata.ProbeBased {
			if fp.Checksum != 0 && f.Checksum != 0 && fp.Checksum != f.Checksum {
				st.Stale++
				degradeStale(f, fp, m, &st)
				continue
			}
			annotateProbe(f, fp)
		} else {
			annotateLine(f, fp)
		}
		f.EntryCount = fp.HeadSamples
		f.HasProfile = true
		st.Annotated++
	}
	return st
}

// degradeStale walks the sub-exact rungs of the degradation ladder for one
// stale function profile and reports whether f received any annotation.
func degradeStale(f *ir.Function, fp *profdata.FunctionProfile, m *stale.Matcher, st *AnnotateStats) bool {
	if m == nil {
		st.Dropped++
		return false
	}
	if res := m.Match(f, fp); res.OK {
		annotateProbe(f, res.Profile)
		f.EntryCount = res.Profile.HeadSamples
		f.HasProfile = true
		st.Matched++
		st.RecoveredProbes += res.RecoveredProbes
		st.QualitySum += res.Quality
		return true
	}
	annotateFlat(f, fp)
	st.FlatFallback++
	return true
}

// annotateFlat is the last profiled rung of the ladder: the function is
// known hot (its total mass survived the drift) but no count can be placed,
// so the mass spreads uniformly — enough for function-level decisions
// (inlining hotness, layout, splitting nothing) without asserting anything
// about branch shape.
func annotateFlat(f *ir.Function, fp *profdata.FunctionProfile) {
	if len(f.Blocks) == 0 {
		return
	}
	w := fp.TotalSamples / uint64(len(f.Blocks))
	if w == 0 && fp.TotalSamples > 0 {
		w = 1
	}
	for _, b := range f.Blocks {
		b.Weight = w
		b.HasWeight = true
	}
	f.EntryCount = fp.HeadSamples
	if f.EntryCount == 0 {
		f.EntryCount = w
	}
	f.HasProfile = true
}

func annotateProbe(f *ir.Function, fp *profdata.FunctionProfile) {
	idx := probe.BuildIndex(f)
	for id, blocks := range idx.Blocks {
		// A probe with no profile entry was sampled zero times: with the
		// function sampled at all, absence is evidence of coldness.
		w := fp.BodyAt(profdata.LocKey{ID: id})
		for _, b := range blocks {
			b.Weight = w
			b.HasWeight = true
		}
	}
}

func annotateLine(f *ir.Function, fp *profdata.FunctionProfile) {
	for _, b := range f.Blocks {
		var w uint64
		has := false
		for i := range b.Instrs {
			loc := b.Instrs[i].Loc
			if loc == nil || loc.Parent != nil || loc.Func != f.Name {
				continue
			}
			key := profdata.LocKey{ID: loc.Line - f.StartLine, Disc: loc.Disc}
			if c, ok := fp.Blocks[key]; ok {
				has = true
				if c > w {
					w = c
				}
			} else {
				// A statement with no samples pulls the max down only if
				// nothing else matched; absence is not evidence of zero.
				_ = key
			}
		}
		if loc := b.Term.Loc; loc != nil && loc.Parent == nil && loc.Func == f.Name {
			key := profdata.LocKey{ID: loc.Line - f.StartLine, Disc: loc.Disc}
			if c, ok := fp.Blocks[key]; ok {
				has = true
				if c > w {
					w = c
				}
			}
		}
		if has {
			b.Weight = w
			b.HasWeight = true
		} else if fp.TotalSamples > 0 {
			// Function was sampled but this block never was: sampled zero.
			b.Weight = 0
			b.HasWeight = true
		}
	}
}

// prepareCSProfile splits a context-sensitive profile for compilation:
// contexts whose ShouldInline bit is set (pre-inliner decisions), or — when
// decisions are absent and hotThreshold > 0 — contexts at least that hot,
// stay in the context table for the top-down sample inliner; every other
// context merges into its leaf's base profile so standalone functions get
// complete counts (Algorithm 2's move-to-base step performed at compile
// time). Returns the retained (inline-candidate) context count.
func prepareCSProfile(prof *profdata.Profile, useDecisions bool, hotThreshold uint64) int {
	if !prof.CS {
		return 0
	}
	kept := 0
	for _, key := range prof.SortedContextKeys() {
		cp := prof.Contexts[key]
		keep := false
		// Depth-1 contexts (a bare function) have no caller frame and are
		// never inline candidates; they are the function's own top-level
		// samples and always fold into its base profile.
		if cp.Context.Depth() > 1 {
			if useDecisions {
				keep = cp.ShouldInline
			} else if hotThreshold > 0 {
				keep = cp.TotalSamples >= hotThreshold
			}
		}
		if keep {
			kept++
			continue
		}
		prof.MergeContextIntoBase(key)
	}
	return kept
}
