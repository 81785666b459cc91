package opt_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csspgo/internal/opt"
	"csspgo/internal/pgo"
	"csspgo/internal/source"
	"csspgo/internal/workloads"
)

// TestDCEAndLICMMatchReferenceOnCorpus holds DCE and LICM to the references
// in reference_test.go on every function of the 14-program corpus (the 7
// workloads and the 7 examples/ modules), taken at the points the passes
// run inside opt.Optimize, without a profile and with the full CSSPGO one
// (the pipelines live above package opt, hence the external test package).
func TestDCEAndLICMMatchReferenceOnCorpus(t *testing.T) {
	check := func(t *testing.T, files []*source.File, train [][]int64) {
		_, prof, err := pgo.Pipeline(files, pgo.FullCS, train)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []pgo.BuildConfig{
			{},
			{Probes: true, Profile: prof, UsePreInlineDecisions: true},
		} {
			cfg.InjectAfter = opt.ReferenceHooks(t)
			if _, err := pgo.Build(files, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range workloads.AllNames() {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Load(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			check(t, w.Files, w.Train)
		})
	}
	mods, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.ml"))
	if err != nil || len(mods) != 7 {
		t.Fatalf("want 7 example modules, got %d (%v)", len(mods), err)
	}
	for _, path := range mods {
		t.Run(filepath.Base(filepath.Dir(path))+"."+strings.TrimSuffix(filepath.Base(path), ".ml"), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := source.Parse(filepath.Base(path), string(data))
			if err != nil {
				t.Fatal(err)
			}
			check(t, []*source.File{f}, pgo.SeededRequests(60, 1, 1000))
		})
	}
}
