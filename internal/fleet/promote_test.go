package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"csspgo/internal/obs"
	"csspgo/internal/profdata"
)

func manifestWithQuality(scores map[string]float64) *obs.Report {
	r := obs.NewReport("csspgo fleet")
	r.Quality = map[string]float64{}
	for k, v := range scores {
		r.Quality[k] = v
	}
	return r
}

// The first candidate promotes unconditionally; a near-identical successor
// passes the gate and bumps the generation.
func TestPromoteFirstAndSteadyState(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPromoter(PromoteConfig{MinOverlap: 0.5}, reg)
	if p.LastGood() != nil {
		t.Fatalf("fresh promoter has a last-good")
	}

	art, res := p.Promote(testProfile("a", "b"), nil)
	if art == nil || !res.OK || res.Overlap != 1 {
		t.Fatalf("first promotion: art=%v res=%+v", art, res)
	}
	if art.Generation != 1 || p.LastGood() != art {
		t.Fatalf("generation/last-good wrong after first promotion")
	}

	art2, res := p.Promote(testProfile("a", "b"), nil)
	if art2 == nil || !res.OK {
		t.Fatalf("identical successor rejected: %s", res)
	}
	if res.Overlap < 0.999 {
		t.Fatalf("identical profile overlap = %f", res.Overlap)
	}
	if art2.Generation != 2 {
		t.Fatalf("generation = %d, want 2", art2.Generation)
	}
	if reg.Counter(obs.MFleetPromotions).Value() != 2 {
		t.Fatalf("promotions counter = %d", reg.Counter(obs.MFleetPromotions).Value())
	}
}

// A candidate whose weight distribution moved past the overlap floor is
// rejected and last-good stays current — the rollback.
func TestPromoteOverlapFloorRollsBack(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPromoter(PromoteConfig{MinOverlap: 0.5}, reg)
	good, _ := p.Promote(testProfile("a", "b"), nil)

	// A disjoint profile: overlap ~0.
	_, res := p.Promote(testProfile("x", "y", "z"), nil)
	if res.OK || !res.RolledBack {
		t.Fatalf("disjoint candidate passed the gate: %+v", res)
	}
	if res.Overlap >= 0.5 {
		t.Fatalf("disjoint overlap = %f", res.Overlap)
	}
	if p.LastGood() != good {
		t.Fatalf("rollback did not retain last-good")
	}
	if reg.Counter(obs.MFleetGateFailures).Value() != 1 || reg.Counter(obs.MFleetRollbacks).Value() != 1 {
		t.Fatalf("gate metrics: failures=%d rollbacks=%d",
			reg.Counter(obs.MFleetGateFailures).Value(), reg.Counter(obs.MFleetRollbacks).Value())
	}
}

// A manifest quality regression beyond obs.DefaultRegressionThreshold (10%)
// fails the gate even when the profile shape is unchanged.
func TestPromoteManifestRegressionRollsBack(t *testing.T) {
	p := NewPromoter(PromoteConfig{}, obs.NewRegistry())
	prof := testProfile("a", "b")
	if art, _ := p.Promote(prof, manifestWithQuality(map[string]float64{"speedup": 1.00})); art == nil {
		t.Fatalf("seed promotion failed")
	}
	_, res := p.Promote(prof, manifestWithQuality(map[string]float64{"speedup": 0.80}))
	if res.OK {
		t.Fatalf("20%% quality regression promoted")
	}
	if res.Diff == "" {
		t.Fatalf("gate result carries no diff text")
	}
	// Within threshold passes.
	if art, res := p.Promote(prof, manifestWithQuality(map[string]float64{"speedup": 0.95})); art == nil {
		t.Fatalf("5%% wobble rejected: %s", res)
	}
}

// Regression test for the overlap bookkeeping: last-good's manifest carries
// fleet.gate.context_overlap from its own promotion, the candidate's does
// not (it is recorded after gating). The gate must not read that asymmetry
// as a quality regression.
func TestPromoteOverlapKeyNotSelfDiffed(t *testing.T) {
	p := NewPromoter(PromoteConfig{}, obs.NewRegistry())
	prof := testProfile("a", "b")
	if art, _ := p.Promote(prof, nil); art == nil {
		t.Fatalf("seed promotion failed")
	}
	for gen := 2; gen <= 4; gen++ {
		art, res := p.Promote(prof, nil)
		if art == nil {
			t.Fatalf("generation %d rejected: %s", gen, res)
		}
		if v := art.Manifest.Quality["fleet.gate.context_overlap"]; v < 0.999 {
			t.Fatalf("generation %d recorded overlap %f", gen, v)
		}
	}
}

// AdoptEncoded keeps the original bytes, so a failed promotion leaves a
// persisted artifact byte-identical to what was loaded.
func TestAdoptEncodedRollbackByteIdentical(t *testing.T) {
	orig := []byte(profdata.EncodeToString(testProfile("a", "b")))
	p := NewPromoter(PromoteConfig{MinOverlap: 0.5}, obs.NewRegistry())
	if err := p.AdoptEncoded(orig); err != nil {
		t.Fatalf("adopt: %v", err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "last-good.profdata")
	if err := p.LastGood().WriteFile(path); err != nil {
		t.Fatalf("write: %v", err)
	}

	if _, res := p.Promote(testProfile("x", "y"), nil); res.OK {
		t.Fatalf("disjoint candidate passed after adopt")
	}
	// Rollback: last-good re-persisted must be byte-identical to the input.
	if err := p.LastGood().WriteFile(path); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(got, orig) {
		t.Fatalf("rolled-back artifact not byte-identical")
	}
}

// Binary artifacts adopt and round-trip the same way.
func TestAdoptEncodedBinary(t *testing.T) {
	orig := profdata.EncodeBinary(testProfile("a"))
	p := NewPromoter(PromoteConfig{}, obs.NewRegistry())
	if err := p.AdoptEncoded(orig); err != nil {
		t.Fatalf("adopt binary: %v", err)
	}
	if !bytes.Equal(p.LastGood().Encoded, orig) {
		t.Fatalf("adopted bytes rewritten")
	}
	if err := p.AdoptEncoded([]byte("not a profile")); err == nil {
		t.Fatalf("garbage adopted")
	}
}

// WriteFile never leaves a torn file: the temp file is renamed into place
// and no stray temp files survive.
func TestArtifactWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.profdata")
	art := &Artifact{Encoded: []byte("payload-v1")}
	if err := art.WriteFile(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	art2 := &Artifact{Encoded: []byte("payload-v2-longer")}
	if err := art2.WriteFile(path); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "payload-v2-longer" {
		t.Fatalf("content = %q", got)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("stray temp files left: %v", ents)
	}
}

// TestPromotedBytesAreTheEncoding promotes a profile whose counts grow
// tenfold, then shrink back, round by round, so each encoding is written
// into room sized by the last-good one, too little or too much: the
// promoted bytes are the text encoding every time.
func TestPromotedBytesAreTheEncoding(t *testing.T) {
	p := NewPromoter(PromoteConfig{MinOverlap: 0.5}, obs.NewRegistry())
	for _, scale := range []uint64{1, 10, 1000, 100000, 10, 1} {
		cand := testProfile("a", "b", "c")
		for _, fp := range cand.Funcs {
			fp.Scale(scale, 1)
		}
		art, gate := p.Promote(cand, nil)
		if art == nil {
			t.Fatalf("scale %d: not promoted: %s", scale, gate)
		}
		if got, want := string(art.Encoded), profdata.EncodeToString(cand); got != want {
			t.Errorf("scale %d: promoted bytes are not the text encoding", scale)
		}
	}
}
