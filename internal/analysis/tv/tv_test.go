package tv

import (
	"strings"
	"testing"

	"csspgo/internal/analysis"
	"csspgo/internal/codegen"
	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/probe"
	"csspgo/internal/sim"
	"csspgo/internal/source"
)

// lower parses and lowers one MiniLang source to IR.
func lower(t *testing.T, src string) *ir.Program {
	t.Helper()
	f, err := source.Parse("tv_test.ml", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const effectsSrc = `
global g0;
global acc;

func main(n, seed) {
	g0 = pure(n) + seed;
	var s = 0;
	for (var i = 0; i < n % 6 + 3; i = i + 1) {
		if (i % 2 == 0) { s = s + writer(i); } else { s = s - i; }
	}
	return writer(n) + g0 + s;
}
func pure(x) { return x * 2 + 1; }
func writer(x) {
	acc = acc + x;
	return acc;
}
func reader(x) { return g0 + x; }
func indirect(x) {
	var h = &pure;
	return icall(h, x);
}
func unreached(x) { return x; }
`

func TestAnalyzeProgramSummaries(t *testing.T) {
	p := lower(t, effectsSrc)
	eff := analyzeProgram(p)

	pe := eff["pure"]
	if !pe.Mask.pure() || pe.All {
		t.Fatalf("pure: want bottom summary, got mask %03b All=%v", pe.Mask, pe.All)
	}
	we := eff["writer"]
	if we.Mask&effWriteGlobal == 0 || !we.Writes["acc"] || we.Writes["g0"] {
		t.Fatalf("writer: want may-write {acc}, got mask %03b writes %v", we.Mask, we.writeSet())
	}
	re := eff["reader"]
	if re.Mask&effReadGlobal == 0 || re.Mask.writes() {
		t.Fatalf("reader: want read-only, got mask %03b", re.Mask)
	}
	// main calls pure and writer and stores g0 itself: transitive summary.
	me := eff["main"]
	if !me.Writes["g0"] || !me.Writes["acc"] {
		t.Fatalf("main: transitive write set = %v, want [acc g0]", me.writeSet())
	}
	// The icall poisons indirect's summary to the whole-program join.
	ie := eff["indirect"]
	if !ie.All || ie.Mask&effICall == 0 {
		t.Fatalf("indirect: want All-poisoned summary, got mask %03b All=%v", ie.Mask, ie.All)
	}
	// main never calls indirect, so the poison must not leak into main.
	if me.All {
		t.Fatal("main: All-poison leaked from an uncalled function")
	}
}

func TestInstrEffectProbesArePure(t *testing.T) {
	in := &ir.Instr{Op: ir.OpProbe, Probe: &ir.Probe{Func: "f", ID: 1, Factor: 1}}
	if !instrEffect(in).pure() {
		t.Fatal("probes must be effect-free (observational invisibility)")
	}
}

// The interpreter is only a trustworthy oracle if it agrees with the
// simulator on the machine-semantics corner cases (div by zero, shifts,
// global indexing). Run both on the same programs and inputs.
func TestInterpreterMatchesSimulator(t *testing.T) {
	srcs := []string{effectsSrc, `
global tab[4] = 10, 20, 30, 40;
func main(a, b) {
	var s = tab[a % 4] + tab[b % 4];
	var d = a / (b % 3);
	var r = a % (b % 3);
	for (var i = 0; i < b % 6 + 2; i = i + 1) { s = s + helper(i, a); }
	tab[a % 4] = s;
	return s + d + r;
}
func helper(x, y) {
	if (x % 2 == 0) { return x * y; }
	return x - y;
}
`}
	inputs := [][]int64{{0, 0}, {1, 1}, {-5, 3}, {17, -2}, {100, 63}, {999, 7}}
	for si, src := range srcs {
		p := lower(t, src)
		bin, err := codegen.Lower(p, codegen.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m := sim.New(bin, sim.DefaultCostParams(), sim.PMUConfig{})
		ctx := newExecContext(p)
		for _, in := range inputs {
			m.Reset()
			want, err := m.Run(in...)
			if err != nil {
				t.Fatalf("src %d sim%v: %v", si, in, err)
			}
			res := ctx.Run(p, in)
			if res.Status != statusOK {
				t.Fatalf("src %d interp%v: status %q", si, in, res.Status)
			}
			if res.Ret != want {
				t.Fatalf("src %d input %v: interp %d, sim %d", si, in, res.Ret, want)
			}
		}
	}
}

func TestInterpreterTraceObservesStores(t *testing.T) {
	p := lower(t, effectsSrc)
	ctx := newExecContext(p)
	res := ctx.Run(p, []int64{3, 4})
	if res.TraceLen == 0 {
		t.Fatal("main stores to g0 and acc: trace must be non-empty")
	}
	var sawStore bool
	for _, ev := range res.Events {
		if ev.Kind == evStore {
			sawStore = true
		}
	}
	if !sawStore {
		t.Fatalf("no store event recorded: %v", res.Events)
	}
}

func TestCorpusIsDeterministic(t *testing.T) {
	a, b := makeCorpus(2), makeCorpus(2)
	if len(a) != corpusSize {
		t.Fatalf("corpus size %d, want %d", len(a), corpusSize)
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("corpus generation is nondeterministic")
			}
		}
	}
}

func TestBisimAcceptsClone(t *testing.T) {
	p := lower(t, effectsSrc)
	q := ir.CloneProgram(p)
	for name, f := range p.Funcs {
		if diags := diffFunctions(f, q.Funcs[name]); len(diags) != 0 {
			t.Fatalf("%s: bisim rejected an identical clone: %v", name, diags)
		}
	}
}

func TestBisimCatchesSwappedSuccessors(t *testing.T) {
	p := lower(t, effectsSrc)
	q := ir.CloneProgram(p)
	if _, ok := Apply(q, injSwapSuccessors, 1); !ok {
		t.Fatal("no branch to swap")
	}
	found := false
	for name, f := range p.Funcs {
		if len(diffFunctions(f, q.Funcs[name])) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("bisim missed swapped branch successors")
	}
}

// Probe insertion must be invisible to the validator end to end: effects,
// bisimulation and the oracle.
func TestValidatorAcceptsProbeInsertion(t *testing.T) {
	p := lower(t, effectsSrc)
	v := NewValidator(p)
	q := ir.CloneProgram(p)
	probe.InsertProgram(q)
	if diags := v.ValidatePass("probe-insert", q, ModeStructural); len(diags) != 0 {
		t.Fatalf("probe insertion flagged: %v", diags)
	}
}

func TestValidatorCatchesEveryInjection(t *testing.T) {
	p := lower(t, effectsSrc)
	probe.InsertProgram(p)
	for _, kind := range injections() {
		v := NewValidator(p)
		q := ir.CloneProgram(p)
		desc, ok := Apply(q, kind, 1)
		if !ok {
			t.Fatalf("%s: no eligible site", kind)
		}
		diags := v.ValidatePass("test", q, ModeStructural)
		if analysis.ErrorCount(diags) == 0 {
			t.Fatalf("%s (%s): validator missed the injection", kind, desc)
		}
		if v.Stats.Violations == 0 {
			t.Fatalf("%s: violation not counted", kind)
		}
	}
}

// A rejected boundary must not advance the baseline: validating the clean
// program again afterwards must still succeed.
func TestValidatorKeepsBaselineOnViolation(t *testing.T) {
	p := lower(t, effectsSrc)
	v := NewValidator(p)
	bad := ir.CloneProgram(p)
	if _, ok := Apply(bad, injClobberReturn, 1); !ok {
		t.Fatal("no return to clobber")
	}
	if len(v.ValidatePass("bad", bad, ModeRestructure)) == 0 {
		t.Fatal("clobbered return not detected")
	}
	if diags := v.ValidatePass("good", ir.CloneProgram(p), ModeStructural); len(diags) != 0 {
		t.Fatalf("baseline advanced past a rejected state: %v", diags)
	}
}

func TestParseInjectionRoundTrip(t *testing.T) {
	for _, kind := range injections() {
		got, err := ParseInjection(kind.String())
		if err != nil || got != kind {
			t.Fatalf("round trip %q: got %v, %v", kind.String(), got, err)
		}
	}
	if _, err := ParseInjection("no-such-kind"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// Restructure-mode effect checks: a store invented by a pass must be caught
// at the program level even where bisimulation does not run.
func TestEffectCheckCatchesInventedStore(t *testing.T) {
	p := lower(t, `
global g0;
func main(a, b) { return quiet(a) + b; }
func quiet(x) { return x * 3; }
`)
	v := NewValidator(p)
	q := ir.CloneProgram(p)
	f := q.Funcs["quiet"]
	entry := f.Entry()
	r := f.NewReg()
	entry.Instrs = append([]ir.Instr{
		{Op: ir.OpConst, Dst: r, Value: 7},
		{Op: ir.OpStoreG, A: r, Ext: &ir.Operands{Sym: "g0"}, Index: ir.NoReg},
	}, entry.Instrs...)
	diags := v.ValidatePass("bad", q, ModeRestructure)
	if analysis.ErrorCount(diags) == 0 {
		t.Fatal("invented store not detected")
	}
	var sawEffects bool
	for _, d := range diags {
		if d.Check == "tv-effects" && strings.Contains(d.Msg, "g0") {
			sawEffects = true
		}
	}
	if !sawEffects {
		t.Fatalf("want a tv-effects finding naming g0, got %v", diags)
	}
}

// pure reports whether the mask allows arbitrary reordering and deletion
// (when the result is dead). Pseudo-probes are deliberately pure: the
// paper's invariant is that probe insertion is observationally invisible.
func (e effect) pure() bool { return e == 0 }

// writes reports whether the mask includes an observable write (direct, or
// via an unknown indirect callee).
func (e effect) writes() bool { return e&(effWriteGlobal|effICall) != 0 }
