package opt

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"csspgo/internal/analysis"
	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/obs"
	"csspgo/internal/probe"
	"csspgo/internal/source"
	"csspgo/internal/workloads"
)

const checkedSrc = `
func main(n, seed) {
	var s = 0;
	for (var i = 0; i < n % 30 + 10; i = i + 1) {
		if (i % 3 == 0) { s = s + work(i); } else { s = s + i; }
	}
	return s;
}
func work(x) {
	var acc = 0;
	var k = x % 5;
	while (k > 0) { acc = acc + x % 7; k = k - 1; }
	return acc;
}
`

// checkedConfig returns the full profiled pipeline with VerifyEach on, plus
// the probed program it should optimize.
func checkedConfig(t *testing.T) (*ir.Program, *Config) {
	t.Helper()
	f, err := source.Parse("checked.ml", checkedSrc)
	if err != nil {
		t.Fatal(err)
	}
	w := &workloads.Workload{Name: "checked", Files: []*source.File{f}}
	for i := int64(0); i < 12; i++ {
		w.Train = append(w.Train, []int64{i * 13, i})
	}
	prof := runTrainingBuild(t, w, checkedSrc)
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	probe.InsertProgram(p)
	cfg := &Config{
		Profile: prof, Barrier: BarrierWeak,
		CSHotContextThreshold: 2, VerifyEach: true,
	}
	return p, cfg
}

func TestVerifyEachCleanPipeline(t *testing.T) {
	p, cfg := checkedConfig(t)
	if _, err := Optimize(p, cfg); err != nil {
		t.Fatalf("checked mode rejected a healthy pipeline: %v", err)
	}
}

// The ISSUE's regression shape: a pass deliberately corrupts an edge weight;
// checked mode must attribute the resulting flow-conservation violation to
// exactly that pass and function, with a usable before/after diff.
func TestVerifyEachAttributesEdgeWeightCorruption(t *testing.T) {
	p, cfg := checkedConfig(t)
	cfg.InjectAfter = map[string]func(*ir.Program){
		// layout preserves the flow guarantee inference established right
		// before it, so the checker is watching flow when layout "breaks".
		"layout": func(p *ir.Program) {
			f := p.Funcs["main"]
			for _, b := range f.ReachableOrder() {
				if len(b.Term.EdgeW) > 0 {
					b.Term.EdgeW[0] += 12345
					return
				}
			}
			t.Fatal("no edge weights to corrupt")
		},
	}
	_, err := Optimize(p, cfg)
	var pv *PassViolation
	if !errors.As(err, &pv) {
		t.Fatalf("want *PassViolation, got %v", err)
	}
	if pv.Pass != "layout" {
		t.Fatalf("violation attributed to %q, want \"layout\"", pv.Pass)
	}
	if pv.Func != "main" {
		t.Fatalf("violation in %q, want \"main\"", pv.Func)
	}
	if len(pv.Diags) == 0 || pv.Diags[0].Check != "flow-conservation" {
		t.Fatalf("want flow-conservation finding, got %v", pv.Diags)
	}
	for _, d := range pv.Diags {
		if d.Pass != "layout" {
			t.Fatalf("diagnostic not stamped with the pass: %v", d)
		}
	}
	diff := pv.Diff()
	if !strings.Contains(diff, "+ ") || !strings.Contains(diff, "- ") {
		t.Fatalf("before/after diff shows no change:\n%s", diff)
	}
	if !strings.Contains(pv.Report(), "layout") {
		t.Fatal("report does not name the pass")
	}
}

// Second corruption class from the ISSUE: a pass mangles a probe payload.
func TestVerifyEachAttributesProbePayloadCorruption(t *testing.T) {
	p, cfg := checkedConfig(t)
	cfg.InjectAfter = map[string]func(*ir.Program){"unroll": zeroProbeFactor(t)}
	_, err := Optimize(p, cfg)
	var pv *PassViolation
	if !errors.As(err, &pv) {
		t.Fatalf("want *PassViolation, got %v", err)
	}
	if pv.Pass != "unroll" || pv.Func != "main" {
		t.Fatalf("attributed to %s/%s, want unroll/main", pv.Pass, pv.Func)
	}
	e := pv.Diags[0]
	if e.Check != "probe-placement" || !strings.Contains(e.Msg, "duplication factor") {
		t.Fatalf("want probe factor finding, got %v", pv.Diags)
	}
}

// zeroProbeFactor returns an injection that zeroes the duplication factor
// of main's first probe, which would zero its counts at annotation.
func zeroProbeFactor(t *testing.T) func(*ir.Program) {
	return func(p *ir.Program) {
		for _, b := range p.Funcs["main"].Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.OpProbe && b.Instrs[i].Probe != nil {
					b.Instrs[i].Probe.Factor = 0
					return
				}
			}
		}
		t.Fatal("no probe to corrupt")
	}
}

// The runner stops at the first violation: a miscompile after an early pass
// comes back as a *PassViolation naming that pass, and no later pass runs,
// so the trace holds an "opt.<pass>" span only for the passes up to it.
func TestVerifyEachStopsAtFirstViolation(t *testing.T) {
	p, cfg := checkedConfig(t)
	cfg.InjectAfter = map[string]func(*ir.Program){"sample-inline": zeroProbeFactor(t)}
	tr := obs.NewTrace()
	cfg.Trace = tr.Span("optimize")
	_, err := Optimize(p, cfg)
	cfg.Trace.End()
	var pv *PassViolation
	if !errors.As(err, &pv) || pv.Pass != "sample-inline" {
		t.Fatalf("want a sample-inline *PassViolation, got %v", err)
	}
	rep := obs.NewReport("test")
	rep.AddTrace(tr)
	var ran []string
	for _, st := range rep.Stages {
		if pass, ok := strings.CutPrefix(st.Name, "optimize/opt."); ok {
			ran = append(ran, pass)
		}
	}
	sort.Strings(ran)
	if got, want := strings.Join(ran, " "), "annotate inference sample-inline"; got != want {
		t.Fatalf("passes with a span: %s, want %s", got, want)
	}
}

// NewPassViolation, which probe insertion and the translation validator
// share, stamps every finding with the pass and attributes the violation
// to the first error's function, or to main when that finding names none.
func TestNewPassViolationAttributesFirstError(t *testing.T) {
	p := lower(t, checkedSrc, false)
	before := func(fn string) string { return "before " + fn }
	for _, errFunc := range []string{"", "work"} {
		want := "main"
		if errFunc != "" {
			want = errFunc
		}
		pv := NewPassViolation("probe-insert", p, []analysis.Diagnostic{
			{Sev: analysis.SevWarning, Func: "other", Block: -1},
			{Sev: analysis.SevError, Func: errFunc, Block: -1},
		}, before)
		if pv.Pass != "probe-insert" || pv.Func != want || pv.Before != "before "+want || pv.After != p.Funcs[want].String() {
			t.Fatalf("error in %q: got pass %q func %q before %q", errFunc, pv.Pass, pv.Func, pv.Before)
		}
		for _, d := range pv.Diags {
			if d.Pass != "probe-insert" {
				t.Fatalf("finding not stamped with the pass: %v", d)
			}
		}
	}
}

// Without VerifyEach the same corruption sails through — the checked mode is
// what catches it, not the pipeline itself.
func TestCorruptionUndetectedWithoutVerifyEach(t *testing.T) {
	p, cfg := checkedConfig(t)
	cfg.VerifyEach = false
	cfg.InjectAfter = map[string]func(*ir.Program){
		"layout": func(p *ir.Program) {
			f := p.Funcs["main"]
			for _, b := range f.ReachableOrder() {
				if len(b.Term.EdgeW) > 0 {
					b.Term.EdgeW[0] += 12345
					return
				}
			}
		},
	}
	if _, err := Optimize(p, cfg); err != nil {
		t.Fatalf("plain mode should not detect weight corruption, got %v", err)
	}
}

func TestPassRegistryNames(t *testing.T) {
	names := PassNames()
	want := []string{"annotate", "dce", "drop-dead-functions", "icp", "if-convert",
		"inference", "inline", "layout", "licm", "remove-unreachable",
		"sample-inline", "simplify-cfg", "split", "tce", "unroll"}
	if len(names) != len(want) {
		t.Fatalf("registered passes = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registered passes = %v, want %v", names, want)
		}
	}
}
