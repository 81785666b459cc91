package opt

import (
	"testing"

	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
	"csspgo/internal/source"
	"csspgo/internal/stale"
)

// ladderOldSrc is the profiled version. work drifts recoverably in the new
// version; mix is rewritten beyond recognition; the leaves stay exact.
const ladderOldSrc = `
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
func mix(n) {
  var t = alpha(n);
  t = t + beta(n);
  return t;
}
func step(x) { return x * 2; }
func other(x) { return x + 1; }
func alpha(x) { return x - 1; }
func beta(x) { return x + 3; }
func main(a, b) { return work(a) + mix(b); }
`

const ladderNewSrc = `
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
func mix(n) {
  var t = 0;
  var i = 0;
  while (i < 3) {
    if (n % 2 == 0) {
      t = t + gamma(i);
    } else {
      t = t + delta(i);
    }
    if (t > 100) {
      t = t - epsilon(i);
    }
    i = i + 1;
  }
  return t;
}
func step(x) { return x * 2; }
func other(x) { return x + 1; }
func gamma(x) { return x - 1; }
func delta(x) { return x + 3; }
func epsilon(x) { return x; }
func main(a, b) { return work(a) + mix(b); }
`

func ladderProgram(t *testing.T, src string) *ir.Program {
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
	return prog
}

// ladderProfile synthesizes the base profile the old version would yield.
func ladderProfile(t *testing.T, old *ir.Program) *profdata.Profile {
	t.Helper()
	p := profdata.New(profdata.ProbeBased, false)
	for _, f := range old.Functions() {
		fp := p.FuncProfile(f.Name)
		fp.Checksum = f.Checksum
		fp.HeadSamples = 50
		// Every own probe is sampled: block probes as body counts, call
		// probes on direct calls as call-target counts.
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Probe == nil || in.Probe.Func != f.Name || in.Probe.InlinedAt != nil {
					continue
				}
				if in.Probe.Kind == ir.ProbeBlock {
					fp.AddBody(profdata.LocKey{ID: in.Probe.ID}, 50)
				} else if in.Op == ir.OpCall {
					fp.AddCall(profdata.LocKey{ID: in.Probe.ID}, in.Sym(), 50)
				}
			}
		}
	}
	return p
}

// TestOptimizeDegradationLadder drives the full ladder through Optimize:
// exact functions annotate as before, work lands on the anchor-matched
// rung, the rewritten mix falls to the flat fallback, and with matching
// disabled every stale profile is dropped.
func TestOptimizeDegradationLadder(t *testing.T) {
	run := func(staleMatching bool) *Stats {
		prog := ladderProgram(t, ladderNewSrc)
		prof := ladderProfile(t, ladderProgram(t, ladderOldSrc))
		st, err := Optimize(prog, &Config{Profile: prof, Barrier: BarrierWeak, StaleMatching: staleMatching})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	on := run(true)
	if on.StaleFuncs != 2 {
		t.Fatalf("expected work and mix stale, got StaleFuncs=%d", on.StaleFuncs)
	}
	if on.MatchedFuncs != 1 {
		t.Errorf("expected exactly work anchor-matched, got %d", on.MatchedFuncs)
	}
	if on.FlatFallbackFuncs != 1 {
		t.Errorf("expected exactly mix on the flat fallback, got %d", on.FlatFallbackFuncs)
	}
	if on.MatchQuality <= 0.5 || on.MatchQuality > 1 {
		t.Errorf("match quality %.2f out of range", on.MatchQuality)
	}
	if on.RecoveredProbes == 0 {
		t.Error("no probes recovered")
	}

	off := run(false)
	if off.StaleFuncs != on.StaleFuncs {
		t.Errorf("staleness detection must not depend on matching: %d vs %d", off.StaleFuncs, on.StaleFuncs)
	}
	if off.MatchedFuncs != 0 || off.FlatFallbackFuncs != 0 || off.RecoveredProbes != 0 {
		t.Errorf("matching disabled but ladder used: %+v", off)
	}
}

// TestSampleInlineSweepCountsDroppedStaleBases: a context no turn of the
// sample inliner reaches (its root is not in the program) folds into its
// leaf's base profile in the safety-net sweep, which re-annotates the leaf
// down the ladder. Without a matcher the stale base is dropped and counts
// as a stale function; with one it lands on the flat fallback and the
// sweep counts nothing (Annotate already classified the function).
func TestSampleInlineSweepCountsDroppedStaleBases(t *testing.T) {
	oldMix := ladderProgram(t, ladderOldSrc).Funcs["mix"]
	for _, c := range []struct {
		m    *stale.Matcher
		want int
	}{{nil, 1}, {stale.NewMatcher(), 0}} {
		prog := ladderProgram(t, ladderNewSrc)
		prof := profdata.New(profdata.ProbeBased, true)
		for _, fp := range []*profdata.FunctionProfile{
			prof.FuncProfile("mix"),
			prof.ContextProfile(profdata.NewContext("ghost", 1, "mix")),
		} {
			fp.Checksum = oldMix.Checksum
			fp.HeadSamples = 10
			fp.AddBody(profdata.LocKey{ID: 1}, 10)
		}
		var st Stats
		sampleInlineCS(prog, new(ir.CallGraphScratch), prof, c.m, &st)
		if st.StaleFuncs != c.want {
			t.Errorf("matcher %v: StaleFuncs = %d, want %d", c.m != nil, st.StaleFuncs, c.want)
		}
		if len(prof.Contexts) != 0 || prof.Funcs["mix"].TotalSamples != 20 {
			t.Errorf("matcher %v: the sweep left %d contexts and %d samples in mix's base, want 0 and 20",
				c.m != nil, len(prof.Contexts), prof.Funcs["mix"].TotalSamples)
		}
		if mix := prog.Funcs["mix"]; mix.HasProfile != (c.m != nil) {
			t.Errorf("matcher %v: mix annotated = %v", c.m != nil, mix.HasProfile)
		}
	}
}
