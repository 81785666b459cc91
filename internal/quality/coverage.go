package quality

import (
	"fmt"
	"sort"
	"strings"

	"csspgo/internal/ir"
	"csspgo/internal/machine"
	"csspgo/internal/profdata"
)

// FuncCoverage is one function's profile coverage: how many of its block
// probes (from the binary's probe metadata) carry a nonzero count in the
// profile. Low coverage means sampling never reached most of the function —
// the profile says little about it.
type FuncCoverage struct {
	Func    string
	Covered int
	Total   int
}

// Ratio returns Covered/Total (0 for probe-less functions).
func (c FuncCoverage) Ratio() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Covered) / float64(c.Total)
}

// Coverage computes per-function profile coverage for a probe-based
// profile against the binary it was collected on. Context profiles count
// as flattened (a block counts as covered if any context exercised it).
// Results are sorted by function name.
func Coverage(bin *machine.Prog, p *profdata.Profile) ([]FuncCoverage, error) {
	if p.Kind != profdata.ProbeBased {
		return nil, fmt.Errorf("quality: coverage needs a probe-based profile, got kind %s", p.Kind)
	}
	// Distinct block-probe IDs per defining function, inlined copies
	// deduplicated: the probe's identity is (Func, ID) however many times
	// inlining materialized it. The value says whether it is covered.
	probes := map[string]map[int32]bool{}
	for i := range bin.Probes {
		rec := &bin.Probes[i]
		if rec.Kind != ir.ProbeBlock {
			continue
		}
		ids := probes[rec.Func]
		if ids == nil {
			ids = map[int32]bool{}
			probes[rec.Func] = ids
		}
		ids[rec.ID] = false
	}
	// The flat profile's count at a block is the sum over the function's
	// base and (for a CS profile) context profiles: positive iff one is.
	cover := func(fp *profdata.FunctionProfile) {
		ids := probes[fp.Name]
		for _, b := range fp.Blocks {
			if _, ok := ids[b.Loc.ID]; ok && b.Loc.Disc == 0 && b.N > 0 {
				ids[b.Loc.ID] = true
			}
		}
	}
	for _, fp := range p.Funcs {
		cover(fp)
	}
	if p.CS {
		for _, fp := range p.Contexts {
			cover(fp)
		}
	}
	out := make([]FuncCoverage, 0, len(probes))
	for fn, ids := range probes {
		cov := FuncCoverage{Func: fn, Total: len(ids)}
		for _, covered := range ids {
			if covered {
				cov.Covered++
			}
		}
		out = append(out, cov)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Func < out[j].Func })
	return out, nil
}

// FormatCoverage renders a coverage table with a weighted total line.
func FormatCoverage(covs []FuncCoverage) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %8s %8s %8s\n", "function", "covered", "probes", "ratio")
	var covered, total int
	for _, c := range covs {
		fmt.Fprintf(&sb, "%-28s %8d %8d %7.1f%%\n", c.Func, c.Covered, c.Total, 100*c.Ratio())
		covered += c.Covered
		total += c.Total
	}
	if total > 0 {
		fmt.Fprintf(&sb, "%-28s %8d %8d %7.1f%%\n", "TOTAL", covered, total,
			100*float64(covered)/float64(total))
	}
	return sb.String()
}
