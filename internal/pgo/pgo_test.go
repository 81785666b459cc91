package pgo

import (
	"testing"

	"csspgo/internal/profdata"
	"csspgo/internal/sampling"
	"csspgo/internal/sim"
	"csspgo/internal/workloads"
)

func newEvalMachine(res *BuildResult) *sim.Machine {
	return sim.New(res.Bin, sim.DefaultCostParams(), sim.PMUConfig{})
}

func profileCS(base *BuildResult, samples []sim.Sample) (*profdata.Profile, sampling.UnwindStats) {
	return sampling.GenerateCSSPGO(base.Bin, samples, sampling.DefaultCSSPGOOptions())
}

func TestBuildVariantsProduceRunnableBinaries(t *testing.T) {
	w, err := workloads.Load("adretriever", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{Baseline, AutoFDO, ProbeOnly, FullCS, InstrPGO} {
		res, prof, err := Pipeline(w.Files, v, w.Train)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		st, err := Evaluate(res.Bin, w.Eval)
		if err != nil {
			t.Fatalf("%s eval: %v", v, err)
		}
		if st.Instructions == 0 {
			t.Fatalf("%s: binary did nothing", v)
		}
		if v == Baseline && prof != nil {
			t.Fatal("baseline must not carry a profile")
		}
		if v != Baseline && prof == nil {
			t.Fatalf("%s: missing profile", v)
		}
	}
}

// TestVariantsComputeIdenticalResults: every PGO variant must preserve
// program semantics — same outputs on the eval stream.
func TestVariantsComputeIdenticalResults(t *testing.T) {
	for _, name := range []string{"adfinder", "hhvm"} {
		w, err := workloads.Load(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		var ref []int64
		for _, v := range []Variant{Baseline, AutoFDO, ProbeOnly, FullCS, InstrPGO} {
			res, _, err := Pipeline(w.Files, v, w.Train)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, v, err)
			}
			outs := runOutputs(t, res, w.Eval)
			if ref == nil {
				ref = outs
				continue
			}
			for i := range ref {
				if outs[i] != ref[i] {
					t.Fatalf("%s/%s: request %d returned %d, baseline %d", name, v, i, outs[i], ref[i])
				}
			}
		}
	}
}

func runOutputs(t *testing.T, res *BuildResult, reqs [][]int64) []int64 {
	t.Helper()
	outs := make([]int64, 0, len(reqs))
	m := newEvalMachine(res)
	for _, req := range reqs {
		v, err := m.Run(req...)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, v)
	}
	return outs
}

func TestStaleProfileRejectedAfterCFGChange(t *testing.T) {
	w, err := workloads.Load("adfinder", 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Build(w.Files, BuildConfig{Probes: true})
	if err != nil {
		t.Fatal(err)
	}
	samples, _, err := CollectSamples(base.Bin, w.Train[:20], DefaultProfileConfig())
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := profileCS(base, samples)
	// Corrupt the checksums everywhere: simulates a CFG-changing edit.
	for _, fp := range prof.Funcs {
		if fp.Checksum != 0 {
			fp.Checksum ^= 0xBAD
		}
	}
	for _, fp := range prof.Contexts {
		if fp.Checksum != 0 {
			fp.Checksum ^= 0xBAD
		}
	}
	res, err := Build(w.Files, BuildConfig{Probes: true, Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StaleFuncs == 0 {
		t.Fatal("checksum mismatches must be detected")
	}
	if res.Stats.AnnotatedFuncs != 0 {
		t.Fatalf("stale functions must not be annotated, got %d", res.Stats.AnnotatedFuncs)
	}
}
