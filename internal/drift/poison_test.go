package drift

import (
	"testing"

	"csspgo/internal/profdata"
	"csspgo/internal/quality"
)

func poisonTestProfile() *profdata.Profile {
	p := profdata.New(profdata.ProbeBased, false)
	for i, n := range []string{"hot", "warm", "cold"} {
		fp := p.FuncProfile(n)
		fp.AddBody(profdata.LocKey{ID: 1}, uint64(1000/(i+1)))
		fp.AddBody(profdata.LocKey{ID: 2}, uint64(400/(i+1)))
		fp.AddCall(profdata.LocKey{ID: 2}, "callee", uint64(100/(i+1)))
		fp.HeadSamples = uint64(50 / (i + 1))
	}
	return p
}

// Poisoned counts must stay structurally valid (same keys, nonzero counts,
// encodes and decodes cleanly) while collapsing the weight distribution far
// enough that the promotion gate's overlap floor fires.
func TestPoisonCountsCollapsesOverlap(t *testing.T) {
	orig := poisonTestProfile()
	bad := PoisonCounts(orig)

	if orig.Funcs["hot"].BodyAt(profdata.LocKey{ID: 1}) != 1000 {
		t.Fatalf("PoisonCounts mutated its input")
	}
	if len(bad.Funcs) != len(orig.Funcs) {
		t.Fatalf("poisoning changed the function set")
	}
	for name, fp := range bad.Funcs {
		for loc, v := range fp.Blocks {
			if v == 0 {
				t.Fatalf("%s %s: zero count after poisoning", name, loc)
			}
		}
	}
	if _, err := profdata.Decode(profdata.EncodeBinary(bad)); err != nil {
		t.Fatalf("poisoned profile does not round-trip: %v", err)
	}

	ov := quality.DiffProfiles(orig, bad).ContextOverlap
	if ov >= 0.5 {
		t.Fatalf("poisoned overlap = %f, want < 0.5 (gate floor)", ov)
	}
	// The ex-coldest function now dominates.
	if bad.Funcs["cold"].TotalSamples < 90*(bad.Funcs["hot"].TotalSamples+bad.Funcs["warm"].TotalSamples) {
		t.Fatalf("coldest function not amplified: %d vs %d/%d",
			bad.Funcs["cold"].TotalSamples, bad.Funcs["hot"].TotalSamples, bad.Funcs["warm"].TotalSamples)
	}
}

// Determinism: poisoning the same profile twice yields identical bytes.
func TestPoisonCountsDeterministic(t *testing.T) {
	a := profdata.EncodeToString(PoisonCounts(poisonTestProfile()))
	b := profdata.EncodeToString(PoisonCounts(poisonTestProfile()))
	if a != b {
		t.Fatalf("PoisonCounts not deterministic")
	}
}

// Degenerate inputs must not panic or divide by zero.
func TestPoisonCountsDegenerate(t *testing.T) {
	empty := profdata.New(profdata.ProbeBased, false)
	if out := PoisonCounts(empty); out.TotalSamples() != 0 {
		t.Fatalf("empty profile grew samples")
	}
	single := profdata.New(profdata.ProbeBased, false)
	single.FuncProfile("only").AddBody(profdata.LocKey{ID: 1}, 7)
	if out := PoisonCounts(single); out.TotalSamples() == 0 {
		t.Fatalf("single-function profile zeroed")
	}
}
