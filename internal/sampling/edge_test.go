package sampling

import (
	"testing"

	"csspgo/internal/profdata"
	"csspgo/internal/sim"
)

// Failure-injection tests: the profile generators must be robust to the
// malformed raw data a real profiling pipeline sees — truncated stacks,
// corrupt LBR records, empty samples.

func TestUnwinderHandlesEmptySample(t *testing.T) {
	bin := build(t, hotColdSrc, true)
	u := newUnwinder(bin, nil)
	if out := u.unwindOne(sim.Sample{}); out != nil {
		t.Fatalf("empty sample should unwind to nothing, got %d ranges", len(out))
	}
	if out := u.unwindOne(sim.Sample{Stack: []uint64{0x1000}}); out != nil {
		t.Fatalf("LBR-less sample should unwind to nothing, got %d", len(out))
	}
}

func TestUnwinderHandlesCorruptLBR(t *testing.T) {
	bin := build(t, hotColdSrc, true)
	samples := profileRun(t, bin, sim.DefaultPMUConfig(32), 10, 100)
	if len(samples) == 0 {
		t.Skip("no samples at this scale")
	}
	// Corrupt a sample: bogus From addresses.
	s := samples[0]
	for i := range s.LBR {
		s.LBR[i].From = 0xDEADBEEF + uint64(i)
	}
	u := newUnwinder(bin, nil)
	out := u.unwindOne(s) // must not panic; ranges dropped
	for _, cr := range out {
		if !cr.R.Valid(bin) {
			t.Fatal("invalid range emitted")
		}
	}
}

func TestUnwinderHandlesShallowStack(t *testing.T) {
	bin := build(t, contextSrc, true)
	samples := profileRun(t, bin, sim.DefaultPMUConfig(16), 20, 200)
	var deep sim.Sample
	for _, s := range samples {
		if len(s.Stack) >= 3 && len(s.LBR) >= 8 {
			deep = s
			break
		}
	}
	if deep.Stack == nil {
		t.Skip("no deep sample found")
	}
	// Truncate the stack to just the leaf: the unwinder runs out of caller
	// frames while rewinding calls and must degrade to empty context, not
	// panic or emit garbage.
	deep.Stack = deep.Stack[:1]
	u := newUnwinder(bin, nil)
	out := u.unwindOne(deep)
	for _, cr := range out {
		if !cr.R.Valid(bin) {
			t.Fatal("invalid range from truncated stack")
		}
	}
}

func TestGenerateCSSPGOWithNoSamples(t *testing.T) {
	bin := build(t, hotColdSrc, true)
	prof, stats := GenerateCSSPGO(bin, nil, DefaultCSSPGOOptions())
	if stats.Samples != 0 || len(prof.Contexts) != 0 {
		t.Fatalf("empty input should produce empty profile: %v %+v", prof, stats)
	}
}

func TestGenerateAutoFDOWithNoSamples(t *testing.T) {
	bin := build(t, hotColdSrc, false)
	prof := GenerateAutoFDO(bin, nil, FlatOptions{})
	if prof.TotalSamples() != 0 {
		t.Fatalf("empty input should be empty: %v", prof)
	}
}

func TestMaxContextDepthTruncates(t *testing.T) {
	bin := build(t, contextSrc, true)
	samples := profileRun(t, bin, sim.DefaultPMUConfig(16), 30, 300)
	shallow, _ := GenerateCSSPGO(bin, samples, CSSPGOOptions{MaxContextDepth: 2})
	for _, key := range shallow.SortedContextKeys() {
		if d := shallow.Contexts[key].Context.Depth(); d > 2 {
			t.Fatalf("context %q depth %d exceeds limit 2", key, d)
		}
	}
	deep, _ := GenerateCSSPGO(bin, samples, CSSPGOOptions{MaxContextDepth: 8})
	maxDepth := 0
	for _, key := range deep.SortedContextKeys() {
		if d := deep.Contexts[key].Context.Depth(); d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth <= 2 {
		t.Fatalf("deep limit should allow deeper contexts, max %d", maxDepth)
	}
	// Totals conserved regardless of truncation.
	if shallow.TotalSamples() != deep.TotalSamples() {
		t.Fatalf("depth truncation lost samples: %d vs %d",
			shallow.TotalSamples(), deep.TotalSamples())
	}
}

func TestICallTargetsFromSamples(t *testing.T) {
	src := `
func main(n, unused) {
	var h = &even;
	var o = &odd;
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		var f = h;
		if (i % 2 == 1) { f = o; }
		s = s + icall(f, i);
	}
	return s;
}
func even(x) { return x * 2; }
func odd(x) { return x * 3; }
`
	bin := build(t, src, true)
	samples := profileRun(t, bin, sim.DefaultPMUConfig(8), 20, 400)
	st := NewFlatStream(bin, FlatOptions{Workers: 1})
	feedSlice(st, samples, 0)
	_, targets, _ := st.drain()
	if len(targets) == 0 {
		t.Fatal("no icall targets recorded")
	}
	var even, odd uint64
	for _, m := range targets {
		even += m["even"]
		odd += m["odd"]
	}
	if even == 0 || odd == 0 {
		t.Fatalf("both targets should be sampled: even=%d odd=%d", even, odd)
	}
	// 50/50 distribution within generous bounds.
	ratio := float64(even) / float64(even+odd)
	if ratio < 0.3 || ratio > 0.7 {
		t.Fatalf("target ratio %f implausible for 50/50 dispatch", ratio)
	}

	// The flat probe profile must carry both targets at the same site.
	prof := GenerateProbeProfile(bin, samples, FlatOptions{})
	found := false
	for _, fp := range prof.Funcs {
		for _, m := range fp.Calls {
			if m["even"] > 0 && m["odd"] > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("probe profile lost multi-target icall histogram")
	}
}

func TestProbeProfileChecksumPresence(t *testing.T) {
	bin := build(t, hotColdSrc, true)
	samples := profileRun(t, bin, sim.DefaultPMUConfig(32), 20, 200)
	prof := GenerateProbeProfile(bin, samples, FlatOptions{})
	for name, fp := range prof.Funcs {
		if fp.TotalSamples > 0 && fp.Checksum == 0 {
			t.Fatalf("%s: sampled function missing checksum", name)
		}
	}
	_ = profdata.LocKey{}
}

// unwindOne recovers the context of every linear range in one sample.
func (u *unwinder) unwindOne(s sim.Sample) []ctxRange {
	return u.unwind(&s, u.decode(s.LBR), 1)
}
