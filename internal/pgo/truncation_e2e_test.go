package pgo

import (
	"testing"

	"csspgo/internal/profdata"
	"csspgo/internal/sampling"
	"csspgo/internal/sim"
	"csspgo/internal/workloads"
)

// TestTruncatedStackFallbackE2E drives the sticky ctxRange.Truncated
// fallback through the whole pipeline: synchronized stacks are cut to one
// frame, so every context recovered below a call record is missing its
// outer frames. Those counts must fall back to context-insensitive base
// profiles (never minting false shallow contexts), and the degraded profile
// must still drive a working profiled build.
func TestTruncatedStackFallbackE2E(t *testing.T) {
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

	full, stFull := sampling.GenerateCSSPGO(base.Bin, samples, sampling.DefaultCSSPGOOptions())

	cut := make([]sim.Sample, len(samples))
	copy(cut, samples)
	for i := range cut {
		if len(cut[i].Stack) >= 2 {
			cut[i].Stack = cut[i].Stack[:1]
		}
	}
	cutProf, stCut := sampling.GenerateCSSPGO(base.Bin, cut, sampling.DefaultCSSPGOOptions())

	if stCut.TruncatedRanges == 0 {
		t.Fatal("cut stacks produced no truncated ranges; test premise broken")
	}
	if stCut.TruncatedRanges <= stFull.TruncatedRanges {
		t.Errorf("truncated ranges did not grow: cut %d vs full %d",
			stCut.TruncatedRanges, stFull.TruncatedRanges)
	}

	sum := func(m map[string]*profdata.FunctionProfile) uint64 {
		var n uint64
		for _, fp := range m {
			n += fp.TotalSamples
		}
		return n
	}
	if c, f := sum(cutProf.Contexts), sum(full.Contexts); c >= f {
		t.Errorf("truncation should shrink context-attributed samples: cut %d vs full %d", c, f)
	}
	if c, f := sum(cutProf.Funcs), sum(full.Funcs); c <= f {
		t.Errorf("truncated counts should land in base profiles: cut %d vs full %d", c, f)
	}

	// The degraded profile must still be consumable end-to-end.
	res, err := Build(w.Files, BuildConfig{Probes: true, Profile: cutProf})
	if err != nil {
		t.Fatalf("build with truncation-degraded profile: %v", err)
	}
	baseEval, err := Evaluate(base.Bin, w.Eval)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := Evaluate(res.Bin, w.Eval)
	if err != nil {
		t.Fatalf("eval with truncation-degraded profile: %v", err)
	}
	if impr := 100 * (float64(baseEval.Cycles) - float64(eval.Cycles)) / float64(baseEval.Cycles); impr <= 0 {
		t.Errorf("degraded profile should still beat the unprofiled build, got %+.2f%%", impr)
	}
}
