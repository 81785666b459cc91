package opt_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csspgo/internal/drift"
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
	forEachCorpusProgram(t, func(t *testing.T, files []*source.File, train [][]int64) {
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
	})
}

// TestCleanupsReachTheirFixedPointOnCorpus holds simplify-cfg, DCE and
// if-conversion to their fixed point (opt.FixpointHooks) on every build of
// the 14-program corpus: the unprobed build, and the training and
// optimizing builds of every profiled variant.
func TestCleanupsReachTheirFixedPointOnCorpus(t *testing.T) {
	forEachCorpusProgram(t, func(t *testing.T, files []*source.File, train [][]int64) {
		cfgs := []pgo.BuildConfig{{}}
		for _, v := range []pgo.Variant{pgo.AutoFDO, pgo.ProbeOnly, pgo.FullCS, pgo.InstrPGO} {
			_, prof, err := pgo.Pipeline(files, v, train)
			if err != nil {
				t.Fatal(err)
			}
			probes := v != pgo.AutoFDO
			if probes {
				cfgs = append(cfgs, pgo.BuildConfig{Probes: true, Instrument: v == pgo.InstrPGO})
			}
			cfgs = append(cfgs, pgo.BuildConfig{Probes: probes, Profile: prof, UsePreInlineDecisions: v == pgo.FullCS})
		}
		for _, cfg := range cfgs {
			// The barrier pgo.Build gives the optimizer.
			barrier := opt.BarrierNone
			switch {
			case cfg.Instrument:
				barrier = opt.BarrierStrong
			case cfg.Probes:
				barrier = opt.BarrierWeak
			}
			cfg.InjectAfter = opt.FixpointHooks(t, barrier)
			if _, err := pgo.Build(files, cfg); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestProfiledPassesMatchReferenceOnWorkloads holds annotateProbe, tail
// merging and layout to the map-based references in
// reference_profile_test.go on the optimizing build of every workload for
// every profiled variant, and on the stale-matching rebuild of a drifted
// copy of its source with the CSSPGO profile.
func TestProfiledPassesMatchReferenceOnWorkloads(t *testing.T) {
	for _, name := range workloads.AllNames() {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Load(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []pgo.Variant{pgo.AutoFDO, pgo.ProbeOnly, pgo.FullCS, pgo.InstrPGO} {
				_, prof, err := pgo.Pipeline(w.Files, v, w.Train)
				if err != nil {
					t.Fatal(err)
				}
				cfg := pgo.BuildConfig{Probes: v != pgo.AutoFDO, Profile: prof, UsePreInlineDecisions: v == pgo.FullCS}
				cfg.InjectAfter = opt.ProfileReferenceHooks(t, prof)
				if _, err := pgo.Build(w.Files, cfg); err != nil {
					t.Fatal(err)
				}
				if v == pgo.FullCS {
					cfg.StaleMatching = true
					if _, err := pgo.Build(drift.Apply(w.Files, drift.InsertStmts, 1), cfg); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// forEachCorpusProgram runs check on every program of the 14-program corpus
// (the 7 workloads and the 7 examples/ modules) with its training stream.
func forEachCorpusProgram(t *testing.T, check func(t *testing.T, files []*source.File, train [][]int64)) {
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
