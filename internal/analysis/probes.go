package analysis

import (
	"fmt"
	"math"

	"csspgo/internal/ir"
)

// checkProbes lints pseudo-probe placement and payloads. Hard violations
// (errors) are invariants every pass must preserve on probed IR:
//
//   - an OpProbe instruction carries a ProbeBlock payload and a call carries
//     a ProbeCall payload (kind confusion corrupts correlation);
//   - probe IDs are >= 1, and probes owned by the function (not inlined)
//     stay within [1, NumProbes] — an out-of-range ID can no longer be
//     consistent with the CFG checksum recorded at insertion time;
//   - duplication factors are finite and positive (annotation divides by
//     them; zero or negative factors silently zero or negate counts).
//
// Coverage findings are warnings: a block with no live block probe (legal
// after tail merging — exactly the accuracy the weak barrier trades away)
// or with several (legal after chain merging).
func checkProbes(f *ir.Function) []Diagnostic {
	instrumented := f.NumProbes > 0
	if !instrumented {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.OpProbe {
					instrumented = true
				}
			}
		}
	}
	if !instrumented {
		return nil
	}

	var diags []Diagnostic
	bad := func(sev Severity, b *ir.Block, format string, args ...interface{}) {
		diags = append(diags, Diagnostic{
			Sev: sev, Check: "probe-placement", Func: f.Name, Block: b.ID,
			Msg: fmt.Sprintf(format, args...),
		})
	}
	payload := func(b *ir.Block, p *ir.Probe, wantKind ir.ProbeKind, what string) {
		if p.Func == "" {
			bad(SevError, b, "%s has no owning function", what)
		}
		if p.Kind != wantKind {
			bad(SevError, b, "%s has kind %d, want %d", what, p.Kind, wantKind)
		}
		if p.ID < 1 {
			bad(SevError, b, "%s has id %d, want >= 1", what, p.ID)
		} else if p.Func == f.Name && p.InlinedAt == nil && f.NumProbes > 0 && p.ID > f.NumProbes {
			bad(SevError, b, "%s id %d exceeds the function's %d allocated probes — payload inconsistent with the CFG checksum", what, p.ID, f.NumProbes)
		}
		if math.IsNaN(p.Factor) || math.IsInf(p.Factor, 0) || p.Factor <= 0 {
			bad(SevError, b, "%s has non-positive duplication factor %v", what, p.Factor)
		}
	}

	for _, b := range f.Blocks {
		blockProbes := 0
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpProbe:
				if in.Probe == nil {
					bad(SevError, b, "probe instruction without payload")
					continue
				}
				blockProbes++
				payload(b, in.Probe, ir.ProbeBlock, fmt.Sprintf("block probe %s:%d", in.Probe.Func, in.Probe.ID))
			case ir.OpCall, ir.OpICall:
				if in.Probe == nil {
					// Calls synthesized late (e.g. ICP's promoted direct
					// call reuses the original probe) should carry one, but
					// its absence only loses call-site attribution.
					bad(SevWarning, b, "call to %s carries no call probe", in.Sym())
					continue
				}
				payload(b, in.Probe, ir.ProbeCall, fmt.Sprintf("call probe %s:%d", in.Probe.Func, in.Probe.ID))
			}
		}
		switch {
		case blockProbes == 0:
			bad(SevWarning, b, "no live block probe (profile coverage gap)")
		case blockProbes > 1:
			bad(SevWarning, b, "%d block probes after merging; counts will correlate to the same block", blockProbes)
		}
	}
	return diags
}
