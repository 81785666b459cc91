package quality

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"csspgo/internal/profdata"
)

// referenceContextWeights and referenceDiffProfiles are DiffProfiles as it
// was before it walked the profiles' maps directly: two weight maps with a
// "flat:"+name key per base function, kept verbatim so
// TestDiffProfilesMatchesReference can hold the live function to them.
func referenceContextWeights(p *profdata.Profile) map[string]uint64 {
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

func referenceDiffProfiles(old, new *profdata.Profile) ProfileDiff {
	ow, nw := referenceContextWeights(old), referenceContextWeights(new)
	var oSum, nSum uint64
	for _, w := range ow {
		oSum += w
	}
	for _, w := range nw {
		nSum += w
	}
	oTotal, nTotal := float64(oSum), float64(nSum)

	d := ProfileDiff{FuncDivergence: map[string]float64{}}
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

// TestDiffProfilesMatchesReference holds DiffProfiles to the version kept
// above, bit for bit, on every golden profile against itself, against the
// next golden in path order, and against a copy with its first context
// dropped, a base function emptied and every context's counts scaled.
func TestDiffProfilesMatchesReference(t *testing.T) {
	golden := goldenProfiles(t)
	paths := make([]string, 0, len(golden))
	for path := range golden {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for i, path := range paths {
		p := golden[path]
		moved := p.Clone()
		if keys := moved.SortedContextKeys(); len(keys) > 0 {
			delete(moved.Contexts, keys[0])
		}
		if names := moved.SortedFuncNames(); len(names) > 0 {
			moved.Funcs[names[0]] = profdata.NewFunctionProfile(names[0])
		}
		for _, fp := range moved.Contexts {
			fp.Scale(3, 2)
		}
		for _, other := range []*profdata.Profile{p, golden[paths[(i+1)%len(paths)]], moved, profdata.New(p.Kind, p.CS)} {
			for _, pair := range [][2]*profdata.Profile{{p, other}, {other, p}} {
				got, want := DiffProfiles(pair[0], pair[1]), referenceDiffProfiles(pair[0], pair[1])
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: DiffProfiles differs from the reference\n got %+v\nwant %+v", path, got, want)
				}
			}
		}
	}
}

// TestWeightKeysOrderAsTheirStrings: comparing a context key with a base
// function's key orders them as their strings would, around every prefix
// of "flat:".
func TestWeightKeysOrderAsTheirStrings(t *testing.T) {
	var keys []weightKey
	for _, s := range []string{"", "a", "f", "fl", "flat", "flat:", "flat:a", "flat:a @ b", "flat:b", "flaz", "fz", "zz"} {
		keys = append(keys, weightKey{name: s})
	}
	for _, s := range []string{"", "a", "a @ b", "b", "c"} {
		keys = append(keys, weightKey{name: s, flat: true})
	}
	for _, a := range keys {
		for _, b := range keys {
			if got, want := a.compare(b), strings.Compare(a.String(), b.String()); got != want {
				t.Errorf("compare(%q, %q) = %d, want %d", a, b, got, want)
			}
		}
	}
}
