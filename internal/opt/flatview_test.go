package opt

import (
	"os"
	"path/filepath"
	"testing"

	"csspgo/internal/profdata"
)

// corpusProfiles decodes every golden profile of the repository: the
// generator's golden profiles (three kinds for each of the 14 corpus
// programs) and the pre-inliner's (the CS profile after trimming and
// pre-inlining, with its ShouldInline decisions).
func corpusProfiles(t *testing.T) map[string]*profdata.Profile {
	t.Helper()
	var paths []string
	for _, glob := range []string{"../pgo/testdata/golden/*.prof", "../preinline/testdata/*.golden"} {
		m, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) != 56 {
		t.Fatalf("found %d golden profiles, want 56", len(paths))
	}
	out := map[string]*profdata.Profile{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := profdata.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[path] = p
	}
	return out
}

// sameCounts reports whether two call histograms hold the same non-zero
// counts (a location or callee absent from one counts as zero there).
func sameCounts(a, b callHistograms) bool {
	count := func(h callHistograms, owner string, c profdata.CallCount) uint64 {
		if fp := h[owner]; fp != nil {
			for _, d := range fp.CallsAt(c.Loc) {
				if d.Callee == c.Callee {
					return d.N
				}
			}
		}
		return 0
	}
	covers := func(a, b callHistograms) bool {
		for owner, fp := range a {
			for _, c := range fp.Calls {
				if c.N != count(b, owner, c) {
					return false
				}
			}
		}
		return true
	}
	return covers(a, b) && covers(b, a)
}

// TestICPHistogramsMatchFlat: the call histograms ICP builds straight from
// the working profile hold what prof.Flat() holds, on every golden profile
// as decoded and as Optimize prepares it (contexts the pre-inliner did not
// keep folded into their base profiles).
func TestICPHistogramsMatchFlat(t *testing.T) {
	for path, p := range corpusProfiles(t) {
		prepared := p.Clone()
		prepareCSProfile(prepared, true, 0)
		for _, prof := range []*profdata.Profile{p, prepared} {
			want := callHistograms{}
			for name, fp := range prof.Flat().Funcs {
				want[name] = fp
			}
			if got := flatCallHistograms(prof); !sameCounts(got, want) {
				t.Errorf("%s (cs=%v, %d contexts): call histograms differ from Flat's", path, prof.CS, len(prof.Contexts))
			}
		}
	}
}
