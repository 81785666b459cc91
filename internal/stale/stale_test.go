package stale

import (
	"testing"

	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
	"csspgo/internal/source"
)

// lower parses and probes one MiniLang source, returning the named function.
func lower(t *testing.T, src, fn string) *ir.Function {
	t.Helper()
	f, err := source.Parse("t.ml", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := irgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	probe.InsertProgram(prog)
	out := prog.Funcs[fn]
	if out == nil {
		t.Fatalf("function %s not lowered", fn)
	}
	return out
}

// profileOf synthesizes the profile the old version would have produced:
// every block probe counted, every call probe attributed to its callee.
func profileOf(f *ir.Function, blockCount uint64) *profdata.FunctionProfile {
	fp := profdata.NewFunctionProfile(f.Name)
	fp.Checksum = f.Checksum
	fp.HeadSamples = blockCount
	for _, a := range anchorsFromIR(nil, f) {
		if a.Kind == block {
			fp.AddBody(profdata.LocKey{ID: a.ID}, blockCount)
		} else {
			callee := a.Callee
			if callee == "" {
				callee = "somewhere"
			}
			fp.AddCall(profdata.LocKey{ID: a.ID}, callee, blockCount)
		}
	}
	return fp
}

const oldSrc = `
func work(n) {
  var s = 0;
  var i = 0;
  while (i < n) {
    if (i % 2 == 0) {
      s = s + step(i);
    } else {
      s = s + other(i);
    }
    i = i + 1;
  }
  return s;
}
func step(x) { return x * 2; }
func other(x) { return x + 1; }
func main(a, b) { return work(a); }
`

// newSrc inserts a statement and an extra guard ahead of the loop — the CFG
// changes, the checksum drifts, but the call structure survives.
const newSrc = `
func work(n) {
  var s = 0;
  var i = 0;
  if (n > 1000000) {
    return 0;
  }
  while (i < n) {
    if (i % 2 == 0) {
      s = s + step(i);
    } else {
      s = s + other(i);
    }
    i = i + 1;
  }
  return s;
}
func step(x) { return x * 2; }
func other(x) { return x + 1; }
func main(a, b) { return work(a); }
`

func TestAnchorsRoundTrip(t *testing.T) {
	f := lower(t, oldSrc, "work")
	fp := profileOf(f, 10)
	fromIR := anchorsFromIR(nil, f)
	fromProf := anchorsFromProfile(nil, fp)
	if len(fromIR) != len(fromProf) {
		t.Fatalf("anchor count mismatch: IR %d vs profile %d", len(fromIR), len(fromProf))
	}
	for i := range fromIR {
		if fromIR[i] != fromProf[i] {
			t.Errorf("anchor %d: IR %+v vs profile %+v", i, fromIR[i], fromProf[i])
		}
	}
}

func TestMatchDriftedCFG(t *testing.T) {
	oldF := lower(t, oldSrc, "work")
	newF := lower(t, newSrc, "work")
	if oldF.Checksum == newF.Checksum {
		t.Fatal("edit did not change the CFG checksum; test premise broken")
	}
	fp := profileOf(oldF, 10)
	res := NewMatcher().Match(newF, fp)
	if !res.OK {
		t.Fatalf("expected a match, got quality %.2f (%d/%d anchors)",
			res.Quality, res.MatchedAnchors, res.OldAnchors)
	}
	if res.Quality <= 0.5 || res.Quality > 1 {
		t.Errorf("quality %.2f out of expected range", res.Quality)
	}
	if !res.Profile.Approx {
		t.Error("remapped profile not marked Approx")
	}
	if res.Profile.Checksum != newF.Checksum {
		t.Error("remapped profile must carry the new checksum")
	}
	if res.RecoveredProbes == 0 {
		t.Error("no probes recovered")
	}
	// The transferred call counts must land on probes that really carry
	// those callees in the new IR.
	idx := probe.BuildIndex(newF)
	for _, c := range res.Profile.Calls {
		calls := idx.Calls[c.Loc.ID]
		if len(calls) == 0 {
			t.Errorf("call counts transferred to non-call probe %d", c.Loc.ID)
			continue
		}
		found := false
		for _, in := range calls {
			if in.Sym() == c.Callee {
				found = true
			}
		}
		if !found {
			t.Errorf("probe %d: callee %s not at that site in new IR", c.Loc.ID, c.Callee)
		}
	}
	// Confidence scaling: counts must not exceed the originals.
	var oldMax, newMax uint64
	for _, b := range fp.Blocks {
		oldMax = max(oldMax, b.N)
	}
	for _, b := range res.Profile.Blocks {
		newMax = max(newMax, b.N)
	}
	if newMax > oldMax {
		t.Errorf("scaled counts grew: %d > %d", newMax, oldMax)
	}
}

func TestMatchRejectsUnrelatedFunction(t *testing.T) {
	oldF := lower(t, oldSrc, "work")
	// A function with completely different calls and shape.
	unrelated := lower(t, `
func work(n) {
  var t = alpha(n);
  t = t + beta(n);
  t = t + gamma(n);
  return t;
}
func alpha(x) { return x; }
func beta(x) { return x; }
func gamma(x) { return x; }
func main(a, b) { return work(a); }
`, "work")
	fp := profileOf(oldF, 10)
	res := NewMatcher().Match(unrelated, fp)
	if res.OK {
		t.Fatalf("matched an unrelated function with quality %.2f", res.Quality)
	}
}

func TestMatchEmptyInputs(t *testing.T) {
	newF := lower(t, newSrc, "work")
	m := NewMatcher()
	if res := m.Match(newF, profdata.NewFunctionProfile("work")); res.OK {
		t.Error("matched an empty profile")
	}
	fp := profileOf(lower(t, oldSrc, "work"), 5)
	bare := &ir.Function{Name: "work"}
	if res := m.Match(bare, fp); res.OK {
		t.Error("matched a function with no probes")
	}
}

func TestMatchIdenticalIsPerfect(t *testing.T) {
	f := lower(t, oldSrc, "work")
	fp := profileOf(f, 10)
	res := NewMatcher().Match(f, fp)
	if !res.OK || res.Quality != 1 {
		t.Fatalf("identical CFG should match perfectly, got ok=%v quality=%.2f", res.OK, res.Quality)
	}
	for _, b := range fp.Blocks {
		if got := res.Profile.BodyAt(b.Loc); got != b.N {
			t.Errorf("perfect match must preserve counts at %s: %d vs %d", b.Loc, got, b.N)
		}
	}
}
