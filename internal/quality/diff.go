package quality

import (
	"fmt"
	"math"
	"slices"
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

// The overlap is computed over per-key sample weights: context profiles
// under their context key, plus the flat base residue of every base
// function with samples, under "flat:"+name — the key Gained and Lost
// print. A context has at least two frames, so no context key can equal a
// base name either way. Both must participate — a shift of weight between
// a context and its flat residue is a real distribution change even when
// the context set is stable. For non-CS profiles only base entries exist.
// DiffProfiles reads the weights off the profiles' maps in place; only a
// gained or lost base function's key is ever built.
const flatPrefix = "flat:"

// weightKey is one key of the overlap and its weight in one profile: a
// context key, or a base function name standing for flatPrefix+name.
type weightKey struct {
	name string
	flat bool
	w    uint64
}

func (k weightKey) String() string {
	if k.flat {
		return flatPrefix + k.name
	}
	return k.name
}

// compare orders keys as their strings order, without building them.
func (k weightKey) compare(o weightKey) int {
	if k.flat == o.flat {
		return strings.Compare(k.name, o.name)
	}
	if k.flat {
		return -o.compare(k)
	}
	// k is a context key, o stands for flatPrefix+o.name.
	n := min(len(k.name), len(flatPrefix))
	if c := strings.Compare(k.name[:n], flatPrefix[:n]); c != 0 {
		return c
	}
	if n < len(flatPrefix) {
		return -1 // k is a proper prefix of o's string
	}
	return strings.Compare(k.name[n:], o.name)
}

// weightKeys returns p's overlap keys, with their weights, in string
// order.
func weightKeys(p *profdata.Profile) []weightKey {
	keys := make([]weightKey, 0, len(p.Contexts)+len(p.Funcs))
	for key, fp := range p.Contexts {
		keys = append(keys, weightKey{name: key, w: fp.TotalSamples})
	}
	for name, fp := range p.Funcs {
		if fp.TotalSamples > 0 {
			keys = append(keys, weightKey{name: name, flat: true, w: fp.TotalSamples})
		}
	}
	slices.SortFunc(keys, weightKey.compare)
	return keys
}

// weight returns p's weight under k's key, and whether p has the key.
func weight(p *profdata.Profile, k weightKey) (uint64, bool) {
	if k.flat {
		if fp := p.Funcs[k.name]; fp != nil && fp.TotalSamples > 0 {
			return fp.TotalSamples, true
		}
		return 0, false
	}
	if fp := p.Contexts[k.name]; fp != nil {
		return fp.TotalSamples, true
	}
	return 0, false
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
	// Integer accumulation is order-independent; only convert once summed.
	oTotal, nTotal := float64(old.TotalSamples()), float64(new.TotalSamples())

	d := ProfileDiff{FuncDivergence: map[string]float64{}}
	// Sum in key order: float addition is not associative, and the
	// overlap lands in journals and manifests that must be byte-identical
	// across reruns — map iteration order would leak in as 1-ulp noise.
	overlap := 0.0
	for _, k := range weightKeys(old) {
		nw, ok := weight(new, k)
		if !ok {
			d.Lost = append(d.Lost, k.String())
			continue
		}
		if oTotal > 0 && nTotal > 0 {
			overlap += math.Min(float64(k.w)/oTotal, float64(nw)/nTotal)
		}
	}
	for key := range new.Contexts {
		if _, ok := old.Contexts[key]; !ok {
			d.Gained = append(d.Gained, key)
		}
	}
	for name, fp := range new.Funcs {
		k := weightKey{name: name, flat: true}
		if _, ok := weight(old, k); !ok && fp.TotalSamples > 0 {
			d.Gained = append(d.Gained, k.String())
		}
	}
	sort.Strings(d.Gained)
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
