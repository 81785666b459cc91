package quality

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"csspgo/internal/obs"
	"csspgo/internal/profdata"
)

// ProfileDiff is the result of comparing two profiles of the same program
// (typically consecutive generations of a continuous-profiling loop, or a
// fresh profile against a stale one).
type ProfileDiff struct {
	// ContextOverlap is the weighted overlap of context weight
	// distributions in [0, 1]: Σ min(w_old/W_old, w_new/W_new) over the
	// union of context keys. 1.0 means identical relative weights. For
	// flat profiles the base function totals play the role of contexts.
	ContextOverlap float64
	// Gained / Lost list context keys present only in the new / only in
	// the old profile, sorted.
	Gained []string
	Lost   []string
	// FuncDivergence holds, per function present in either profile, the
	// absolute relative change of its flattened total samples in [0, 1]
	// (1 means appeared or disappeared entirely).
	FuncDivergence map[string]float64
	// MeanFuncDivergence averages FuncDivergence over its functions
	// (0 when there are none).
	MeanFuncDivergence float64
}

// contextWeights returns the per-key sample weights the overlap is computed
// over: context profiles plus the flat base residue, under a "flat:" key
// prefix that Gained and Lost print. A context has at least two frames, so
// no context key can equal a base name either way. Both must participate — a shift of weight between a context and its flat
// residue is a real distribution change even when the context set is
// stable. For non-CS profiles only base entries exist.
func contextWeights(p *profdata.Profile) map[string]uint64 {
	w := map[string]uint64{}
	for key, fp := range p.Contexts {
		w[key] += fp.TotalSamples
	}
	for name, fp := range p.Funcs {
		if fp.TotalSamples > 0 {
			w["flat:"+name] += fp.TotalSamples
		}
	}
	return w
}

// FlatFuncTotals returns per-function flattened body-sample totals: what
// p.Flat() holds, summed without cloning the profile.
func FlatFuncTotals(p *profdata.Profile) map[string]uint64 {
	totals := make(map[string]uint64, len(p.Funcs))
	for name, fp := range p.Funcs {
		totals[name] += fp.TotalSamples
	}
	if p.CS {
		for _, fp := range p.Contexts {
			totals[fp.Name] += fp.TotalSamples
		}
	}
	return totals
}

// DiffProfiles compares an old and a new profile: weighted context overlap,
// gained/lost contexts, and per-function count divergence. Both profiles
// should come from the same program; the metric is purely profile-side (no
// IR needed), so it also works on decoded profiles without sources.
func DiffProfiles(old, new *profdata.Profile) ProfileDiff {
	ow, nw := contextWeights(old), contextWeights(new)
	// Integer accumulation is order-independent; only convert once summed.
	var oSum, nSum uint64
	for _, w := range ow {
		oSum += w
	}
	for _, w := range nw {
		nSum += w
	}
	oTotal, nTotal := float64(oSum), float64(nSum)

	d := ProfileDiff{FuncDivergence: map[string]float64{}}
	// Sum in sorted key order: float addition is not associative, and the
	// overlap lands in journals and manifests that must be byte-identical
	// across reruns — map iteration order would leak in as 1-ulp noise.
	oKeys := make([]string, 0, len(ow))
	for key := range ow {
		oKeys = append(oKeys, key)
	}
	sort.Strings(oKeys)
	overlap := 0.0
	for _, key := range oKeys {
		w := ow[key]
		nwv, ok := nw[key]
		if !ok {
			d.Lost = append(d.Lost, key)
			continue
		}
		if oTotal > 0 && nTotal > 0 {
			ov := float64(w) / oTotal
			nv := float64(nwv) / nTotal
			overlap += math.Min(ov, nv)
		}
	}
	for key := range nw {
		if _, ok := ow[key]; !ok {
			d.Gained = append(d.Gained, key)
		}
	}
	sort.Strings(d.Gained)
	sort.Strings(d.Lost)
	d.ContextOverlap = overlap

	of, nf := FlatFuncTotals(old), FlatFuncTotals(new)
	fKeys := make([]string, 0, len(of))
	for name := range of {
		fKeys = append(fKeys, name)
	}
	sort.Strings(fKeys)
	var divSum float64
	for _, name := range fKeys {
		ov, nv := of[name], nf[name]
		if ov == 0 && nv == 0 {
			continue
		}
		div := math.Abs(float64(nv)-float64(ov)) / math.Max(float64(ov), float64(nv))
		d.FuncDivergence[name] = div
		divSum += div
	}
	for name, nv := range nf {
		if _, seen := of[name]; seen || nv == 0 {
			continue
		}
		d.FuncDivergence[name] = 1
		divSum += 1
	}
	if len(d.FuncDivergence) > 0 {
		d.MeanFuncDivergence = divSum / float64(len(d.FuncDivergence))
	}
	return d
}

// Publish records the diff into the unified registry (nil-safe):
// quality.context_overlap / quality.func_divergence gauges and
// quality.contexts_gained / quality.contexts_lost counters.
func (d ProfileDiff) Publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge(obs.MQualityContextOverlap).Set(d.ContextOverlap)
	reg.Gauge(obs.MQualityFuncDivergence).Set(d.MeanFuncDivergence)
	reg.Counter(obs.MQualityContextsGained).Add(int64(len(d.Gained)))
	reg.Counter(obs.MQualityContextsLost).Add(int64(len(d.Lost)))
}

// Format renders the diff for `csspgo inspect -diff`: the headline overlap,
// gained/lost context counts (with the keys), and the most-divergent
// functions first.
func (d ProfileDiff) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "context overlap:      %.4f\n", d.ContextOverlap)
	fmt.Fprintf(&sb, "mean func divergence: %.4f\n", d.MeanFuncDivergence)
	fmt.Fprintf(&sb, "contexts gained:      %d\n", len(d.Gained))
	for _, k := range d.Gained {
		fmt.Fprintf(&sb, "  + %s\n", k)
	}
	fmt.Fprintf(&sb, "contexts lost:        %d\n", len(d.Lost))
	for _, k := range d.Lost {
		fmt.Fprintf(&sb, "  - %s\n", k)
	}
	names := make([]string, 0, len(d.FuncDivergence))
	for n := range d.FuncDivergence {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := names[i], names[j]
		if d.FuncDivergence[a] != d.FuncDivergence[b] {
			return d.FuncDivergence[a] > d.FuncDivergence[b]
		}
		return a < b
	})
	fmt.Fprintf(&sb, "per-function divergence:\n")
	for _, n := range names {
		fmt.Fprintf(&sb, "  %-28s %.4f\n", n, d.FuncDivergence[n])
	}
	return sb.String()
}
