package drift

import (
	"csspgo/internal/profdata"
)

// PoisonCounts returns a deep-copied profile whose sample distribution has
// been adversarially skewed while staying structurally valid: every body
// count is inverted against the profile's hottest count (hot paths read
// cold, cold paths read hot), and the originally coldest record is then
// amplified until it dominates the total. It models a collector with
// corrupted counters — the artifact parses, checksums match, but the
// weight distribution shares almost nothing with reality. A promotion gate
// worth having must refuse it; `csspgo fleet -inject poison-counts` uses it
// to prove the gate fires.
func PoisonCounts(p *profdata.Profile) *profdata.Profile {
	out := p.Clone()

	// The hottest single body count anywhere, for the inversion ceiling.
	var max uint64
	for _, fp := range allRecords(out) {
		for _, b := range fp.Blocks {
			if b.N > max {
				max = b.N
			}
		}
	}
	if max == 0 {
		return out
	}

	// Remember the coldest record (by pre-inversion total) — the one a
	// truthful profile says matters least.
	var coldest *profdata.FunctionProfile
	for _, fp := range allRecords(out) {
		if fp.TotalSamples == 0 {
			continue
		}
		if coldest == nil || fp.TotalSamples < coldest.TotalSamples {
			coldest = fp
		}
	}

	// Invert every count: v -> max - v + 1 keeps all keys present and
	// nonzero, so the poisoned profile decodes and annotates cleanly.
	for _, fp := range allRecords(out) {
		invert(fp, max)
	}

	// Amplify the ex-coldest record until it carries ~99% of the weight.
	if coldest != nil && coldest.TotalSamples > 0 {
		var rest uint64
		for _, fp := range allRecords(out) {
			if fp != coldest {
				rest += fp.TotalSamples
			}
		}
		if rest > 0 {
			coldest.Scale(99*rest, coldest.TotalSamples)
		}
	}
	return out
}

// allRecords iterates base and context records alike; poisoning must skew
// both, since the overlap gate weighs their union.
func allRecords(p *profdata.Profile) []*profdata.FunctionProfile {
	out := make([]*profdata.FunctionProfile, 0, len(p.Funcs)+len(p.Contexts))
	for _, name := range p.SortedFuncNames() {
		out = append(out, p.Funcs[name])
	}
	for _, key := range p.SortedContextKeys() {
		out = append(out, p.Contexts[key])
	}
	return out
}

// invert maps every count v to max-v+1 (a call count above max reads as
// max first) and rebuilds the record's totals.
func invert(fp *profdata.FunctionProfile, max uint64) {
	fp.MapCounts(func(v uint64) uint64 { return max - min(v, max) + 1 })
	if fp.HeadSamples > 0 {
		fp.HeadSamples = max - fp.HeadSamples%max
	}
}
