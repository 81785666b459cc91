package opt

import (
	"testing"

	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
	"csspgo/internal/source"
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
					fp.AddCall(profdata.LocKey{ID: in.Probe.ID}, in.Callee, 50)
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
