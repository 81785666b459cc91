package pgo

import (
	"testing"

	"csspgo/internal/profdata"
	"csspgo/internal/sampling"
	"csspgo/internal/workloads"
)

// TestPipelineHonorsWorkerCount: the end-to-end driver path must produce the
// same profile whether the collection config requests serial or parallel
// generation.
func TestPipelineHonorsWorkerCount(t *testing.T) {
	w, err := workloads.Load("adranker", 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Build(w.Files, BuildConfig{Probes: true})
	if err != nil {
		t.Fatal(err)
	}
	samples, _, err := CollectSamples(base.Bin, w.Train, DefaultProfileConfig())
	if err != nil {
		t.Fatal(err)
	}
	serial, _ := sampling.GenerateCSSPGO(base.Bin, samples, csspgoOptions(ProfileConfig{Workers: 1}))
	parallel, _ := sampling.GenerateCSSPGO(base.Bin, samples, csspgoOptions(ProfileConfig{Workers: 4}))
	if profdata.EncodeToString(serial) != profdata.EncodeToString(parallel) {
		t.Fatal("csspgoOptions does not thread the worker count deterministically")
	}
}

// TestParseProfileKind: every -kind spelling maps to its variant, and
// anything else is an error the CLIs can return before a training run.
func TestParseProfileKind(t *testing.T) {
	for _, tc := range []struct {
		kind string
		want Variant
		ok   bool
	}{
		{"cs", FullCS, true}, {"probe", ProbeOnly, true}, {"autofdo", AutoFDO, true}, {"instr", InstrPGO, true},
		{"", "", false}, {"CS", "", false}, {"csspgo", "", false}, {"baseline", "", false}, {"probe ", "", false},
	} {
		got, err := ParseProfileKind(tc.kind)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("ParseProfileKind(%q) = %q, %v; want %q, ok=%v", tc.kind, got, err, tc.want, tc.ok)
		}
	}
}
