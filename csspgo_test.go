package csspgo

import "testing"

const demoApp = `
global hits;
func main(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		s = s + score(i);
	}
	return s + hits;
}
func score(x) {
	hits = hits + 1;
	if (x % 3 == 0) { return shaped(x, 1); }
	return shaped(x, 2);
}
func shaped(x, mode) {
	if (mode == 1) { return x * 2 + 1; }
	var s = 0;
	var k = x % 7;
	while (k > 0) { s = s + k; k = k - 1; }
	return s;
}
`

func mods() []Module { return []Module{{Name: "app.ml", Source: demoApp}} }

func train() [][]int64 {
	out := make([][]int64, 40)
	for i := range out {
		out[i] = []int64{int64(100 + i*7)}
	}
	return out
}

func TestPublicAPIRoundTrip(t *testing.T) {
	res, prof, err := BuildVariant(mods(), FullCS, train())
	if err != nil {
		t.Fatal(err)
	}
	if prof == nil {
		t.Fatal("FullCS must produce a profile")
	}
	outs, stats, err := RunOutputs(res, train())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Instructions == 0 || len(outs) != 40 {
		t.Fatalf("run: %d outs, %+v", len(outs), stats)
	}
	// Semantics match the baseline.
	base, _, err := BuildVariant(mods(), Baseline, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseOuts, _, err := RunOutputs(base, train())
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		if outs[i] != baseOuts[i] {
			t.Fatalf("output %d: %d vs %d", i, outs[i], baseOuts[i])
		}
	}
}

func TestProfileTextRoundTripViaAPI(t *testing.T) {
	res, prof, err := BuildVariant(mods(), ProbeOnly, train())
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	text := EncodeProfile(prof)
	back, err := DecodeProfileAny([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if EncodeProfile(back) != text {
		t.Fatal("profile text round trip unstable")
	}
}

func TestCollectProfileMatchesPipeline(t *testing.T) {
	base, err := Build(mods(), BuildConfig{Probes: true})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := CollectProfile(base, FullCS, train())
	if err != nil {
		t.Fatal(err)
	}
	if prof == nil || !prof.CS {
		t.Fatalf("expected CS profile, got %v", prof)
	}
	opt, err := Build(mods(), BuildConfig{Probes: true, Profile: prof, UsePreInlineDecisions: true})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Stats.AnnotatedFuncs == 0 {
		t.Fatal("profile did not annotate")
	}
}

func TestLoadWorkloadViaAPI(t *testing.T) {
	for _, name := range ServerWorkloads() {
		w, err := LoadWorkload(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.Files) == 0 {
			t.Fatalf("%s: no files", name)
		}
	}
	if _, err := LoadWorkload("bogus", 1); err == nil {
		t.Fatal("bogus workload should fail")
	}
}

func TestParseErrorsSurface(t *testing.T) {
	if _, err := Parse([]Module{{Name: "bad.ml", Source: "func ("}}); err == nil {
		t.Fatal("syntax error should surface")
	}
	if _, err := Parse(nil); err == nil {
		t.Fatal("empty module list should fail")
	}
}

func TestBinaryProfileViaAPI(t *testing.T) {
	_, prof, err := BuildVariant(mods(), FullCS, train())
	if err != nil {
		t.Fatal(err)
	}
	bin := EncodeProfileBinary(prof)
	back, err := DecodeProfileAny(bin)
	if err != nil {
		t.Fatal(err)
	}
	if EncodeProfile(back) != EncodeProfile(prof) {
		t.Fatal("binary profile round trip via API lost data")
	}
	if len(bin) >= len(EncodeProfile(prof)) {
		t.Fatalf("binary (%d B) should beat text (%d B)", len(bin), len(EncodeProfile(prof)))
	}
	// Auto-detect also handles text.
	fromText, err := DecodeProfileAny([]byte(EncodeProfile(prof)))
	if err != nil {
		t.Fatal(err)
	}
	if EncodeProfile(fromText) != EncodeProfile(prof) {
		t.Fatal("text auto-detect path lost data")
	}
}

func TestAllVariantsViaAPIOnWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	w, err := LoadWorkload("dispatcher", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Workloads carry pre-parsed files (the internal pipeline exercises
	// them end-to-end elsewhere); confirm the public surface exposes sane
	// streams and modules.
	if len(w.Train) == 0 || len(w.Eval) == 0 || len(w.Files) < 3 {
		t.Fatalf("dispatcher workload malformed: %d train, %d eval, %d files",
			len(w.Train), len(w.Eval), len(w.Files))
	}
}
