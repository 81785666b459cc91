package analysis

import (
	"strings"
	"testing"

	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
	"csspgo/internal/source"
)

const stalelintOldSrc = `
func work(n) {
  var s = 0;
  var i = 0;
  while (i < n) {
    s = s + step(i);
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
func alpha(x) { return x - 1; }
func beta(x) { return x + 3; }
func main(a, b) { return work(a) + mix(b); }
`

// stalelintNewSrc: work drifts recoverably (extra guard), mix is rewritten
// beyond recognition, alpha is deleted, the rest stay exact.
const stalelintNewSrc = `
func work(n) {
  var s = 0;
  var i = 0;
  if (n > 1000000) {
    return 0;
  }
  while (i < n) {
    s = s + step(i);
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
    i = i + 1;
  }
  return t;
}
func step(x) { return x * 2; }
func gamma(x) { return x - 1; }
func delta(x) { return x + 3; }
func main(a, b) { return work(a) + mix(b); }
`

func stalelintProgram(t *testing.T, src string) *ir.Program {
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

func TestCheckStaleMatching(t *testing.T) {
	old := stalelintProgram(t, stalelintOldSrc)
	prog := stalelintProgram(t, stalelintNewSrc)
	prof := profdata.New(profdata.ProbeBased, false)
	for _, f := range old.Functions() {
		fp := prof.FuncProfile(f.Name)
		fp.Checksum = f.Checksum
		fp.HeadSamples = 20
		// Every own probe is sampled: block probes as body counts, call
		// probes on direct calls as call-target counts.
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Probe == nil || in.Probe.Func != f.Name || in.Probe.InlinedAt != nil {
					continue
				}
				if in.Probe.Kind == ir.ProbeBlock {
					fp.AddBody(profdata.LocKey{ID: in.Probe.ID}, 20)
				} else if in.Op == ir.OpCall {
					fp.AddCall(profdata.LocKey{ID: in.Probe.ID}, in.Callee, 20)
				}
			}
		}
	}

	diags := CheckStaleMatching(prof, prog)
	find := func(substr string) *Diagnostic {
		for i := range diags {
			if strings.Contains(diags[i].Msg, substr) {
				return &diags[i]
			}
		}
		return nil
	}

	if d := find("func work: stale profile recoverable"); d == nil || d.Sev != sevInfo {
		t.Errorf("work should be reported recoverable at info severity; got %v", d)
	}
	if d := find("func mix: match quality"); d == nil || d.Sev != SevWarning {
		t.Errorf("mix should warn about below-threshold quality; got %v", d)
	}
	if d := find("func alpha: no longer in the program"); d == nil || d.Sev != SevWarning {
		t.Errorf("alpha should warn about being dropped; got %v", d)
	}
	if d := find("degradation ladder: 1 anchor-matched, 1 flat-fallback, 2 dropped"); d == nil {
		t.Errorf("summary line missing or wrong; diagnostics:\n%v", diags)
	}
	// step and main are exact: the matcher must not mention them.
	for _, name := range []string{"func step", "func main"} {
		if d := find(name + ":"); d != nil {
			t.Errorf("exact-match %s should not be reported, got %v", name, d)
		}
	}
}
