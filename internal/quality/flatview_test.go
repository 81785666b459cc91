package quality

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"csspgo/internal/ir"
	"csspgo/internal/machine"
	"csspgo/internal/profdata"
)

// goldenProfiles decodes the generator's and the pre-inliner's golden
// profiles.
func goldenProfiles(t *testing.T) map[string]*profdata.Profile {
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

// probesFor is a binary holding a block probe at every body location the
// profile's base and context profiles name, plus one no profile names per
// function.
func probesFor(p *profdata.Profile) *machine.Prog {
	bin := &machine.Prog{}
	add := func(fp *profdata.FunctionProfile) {
		for _, b := range fp.Blocks {
			bin.Probes = append(bin.Probes, machine.ProbeRec{Func: fp.Name, ID: b.Loc.ID, Kind: ir.ProbeBlock})
		}
		bin.Probes = append(bin.Probes, machine.ProbeRec{Func: fp.Name, ID: 1 << 20, Kind: ir.ProbeBlock})
	}
	for _, fp := range p.Funcs {
		add(fp)
	}
	for _, fp := range p.Contexts {
		add(fp)
	}
	sort.Slice(bin.Probes, func(i, j int) bool {
		a, b := bin.Probes[i], bin.Probes[j]
		return a.Func < b.Func || a.Func == b.Func && a.ID < b.ID
	})
	return bin
}

// TestFlatTotalsMatchFlat: the per-function flat readers DiffProfiles and
// Coverage use give what reading prof.Flat() gives, on every golden
// profile.
func TestFlatTotalsMatchFlat(t *testing.T) {
	for path, p := range goldenProfiles(t) {
		flat := p.Flat()
		want := map[string]uint64{}
		for name, fp := range flat.Funcs {
			want[name] = fp.TotalSamples
		}
		got := FlatFuncTotals(p)
		if len(got) != len(want) {
			t.Errorf("%s: %d flat totals, Flat has %d functions", path, len(got), len(want))
		}
		for name, n := range want {
			if m, ok := got[name]; !ok || m != n {
				t.Errorf("%s: %s flat total %d (present %v), Flat says %d", path, name, m, ok, n)
			}
		}
		if p.Kind != profdata.ProbeBased {
			continue
		}
		bin := probesFor(p)
		covs, err := Coverage(bin, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range covs {
			covered := map[int32]bool{}
			if fp := flat.Funcs[c.Func]; fp != nil {
				for _, b := range fp.Blocks {
					if b.N > 0 {
						covered[b.Loc.ID] = true
					}
				}
			}
			if c.Covered != len(covered) {
				t.Errorf("%s: %s covers %d probes, Flat says %d", path, c.Func, c.Covered, len(covered))
			}
		}
	}
}
