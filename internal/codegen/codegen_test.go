package codegen

import (
	"testing"

	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/machine"
	"csspgo/internal/probe"
	"csspgo/internal/source"
)

func compile(t testing.TB, src string, withProbes bool, opts Options) *machine.Prog {
	t.Helper()
	f, err := source.Parse("m", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	if withProbes {
		probe.InsertProgram(p)
	}
	mp, err := Lower(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return mp
}

const simpleSrc = `
global g;
func main(a) {
	var r = 0;
	if (a > 0) { r = helper(a); } else { r = 0 - a; }
	g = r;
	return r;
}
func helper(x) {
	var s = 0;
	while (x > 0) { s = s + x; x = x - 1; }
	return s;
}
`

func TestLowerProducesContiguousAddresses(t *testing.T) {
	mp := compile(t, simpleSrc, false, Options{})
	var prevEnd uint64
	for i := range mp.Instrs {
		in := &mp.Instrs[i]
		if i > 0 && in.Addr != prevEnd {
			t.Fatalf("instr %d at %#x, want %#x (contiguous)", i, in.Addr, prevEnd)
		}
		if in.Size != machine.SizeOf(in.Kind) {
			t.Fatalf("instr %d size %d, want %d", i, in.Size, machine.SizeOf(in.Kind))
		}
		prevEnd = in.Addr + uint64(in.Size)
	}
	if mp.TextSize == 0 || mp.TextSize != prevEnd-mp.Instrs[0].Addr {
		t.Fatalf("text size %d inconsistent", mp.TextSize)
	}
}

func TestLowerSymbolTable(t *testing.T) {
	mp := compile(t, simpleSrc, false, Options{})
	if len(mp.Funcs) != 2 {
		t.Fatalf("funcs = %d", len(mp.Funcs))
	}
	mainF := mp.FuncByName["main"]
	helper := mp.FuncByName["helper"]
	if mainF == nil || helper == nil {
		t.Fatal("missing symbols")
	}
	if mainF.End <= mainF.Start || helper.End <= helper.Start {
		t.Fatal("empty function ranges")
	}
	if mainF.End > helper.Start && helper.End > mainF.Start {
		t.Fatal("function ranges overlap")
	}
	if mp.EntryAddr != mainF.Start {
		t.Fatalf("entry %#x != main start %#x", mp.EntryAddr, mainF.Start)
	}
	if got := mp.FuncAt(helper.Start); got != helper {
		t.Fatalf("FuncAt(helper.Start) = %v", got)
	}
}

func TestCallTargetsResolve(t *testing.T) {
	mp := compile(t, simpleSrc, false, Options{})
	for i := range mp.Instrs {
		in := &mp.Instrs[i]
		switch in.Kind {
		case machine.KCall, machine.KTailCall, machine.KJump, machine.KBranch:
			if mp.InstrAt(in.Target) == nil {
				t.Fatalf("instr %d (%v) target %#x unmapped", i, in.Kind, in.Target)
			}
		}
	}
	// The call in main must target helper's entry.
	found := false
	for i := range mp.Instrs {
		in := &mp.Instrs[i]
		if in.Kind == machine.KCall && in.Target == mp.FuncByName["helper"].Start {
			found = true
		}
	}
	if !found {
		t.Fatal("no call to helper's entry")
	}
}

func TestProbesBecomeMetadataNotInstructions(t *testing.T) {
	plain := compile(t, simpleSrc, false, Options{})
	probed := compile(t, simpleSrc, true, Options{})
	if len(probed.Probes) == 0 {
		t.Fatal("probe metadata missing")
	}
	// Pseudo-probes must not add machine instructions (near-zero overhead).
	if len(probed.Instrs) != len(plain.Instrs) {
		t.Fatalf("pseudo-probes changed instruction count: %d vs %d", len(probed.Instrs), len(plain.Instrs))
	}
	if probed.TextSize != plain.TextSize {
		t.Fatalf("pseudo-probes changed text size: %d vs %d", probed.TextSize, plain.TextSize)
	}
	if probed.ProbeMetaSize == 0 {
		t.Fatal("probe metadata section empty")
	}
	// Every probe anchors at a real instruction address.
	for _, pr := range probed.Probes {
		if probed.InstrAt(pr.Addr) == nil {
			t.Fatalf("probe %s:%d anchored at unmapped %#x", pr.Func, pr.ID, pr.Addr)
		}
	}
	// Checksums recorded per probed function.
	if probed.Checksums["main"] == 0 || probed.Checksums["helper"] == 0 {
		t.Fatal("checksums not recorded")
	}
}

func TestInstrumentEmitsCounters(t *testing.T) {
	mp := compile(t, simpleSrc, true, Options{Instrument: true})
	if mp.NumCounters == 0 {
		t.Fatal("no counters allocated")
	}
	ctrs := 0
	for i := range mp.Instrs {
		if mp.Instrs[i].Kind == machine.KCounter {
			ctrs++
		}
	}
	if ctrs == 0 {
		t.Fatal("no counter instructions emitted")
	}
	if int(mp.NumCounters) != len(mp.CounterKeys) {
		t.Fatalf("counter bookkeeping: %d vs %d", mp.NumCounters, len(mp.CounterKeys))
	}
	// Instrumented binary must be bigger than pseudo-probe binary.
	pseudo := compile(t, simpleSrc, true, Options{})
	if mp.TextSize <= pseudo.TextSize {
		t.Fatalf("instrumentation should grow text: %d vs %d", mp.TextSize, pseudo.TextSize)
	}
}

func TestFallthroughElision(t *testing.T) {
	// An if/else: at most one arm needs a jump to the join block.
	mp := compile(t, `func main(a) { var r = 0; if (a > 0) { r = 1; } else { r = 2; } return r; }`, false, Options{})
	jumps := 0
	for i := range mp.Instrs {
		if mp.Instrs[i].Kind == machine.KJump {
			jumps++
		}
	}
	if jumps > 1 {
		t.Fatalf("expected fallthrough elision, got %d jumps", jumps)
	}
}

func TestColdSplitLayout(t *testing.T) {
	f, err := source.Parse("m", simpleSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	// Mark helper's loop body cold artificially (split exercise).
	h := p.Funcs["helper"]
	h.Blocks[len(h.Blocks)-2].Cold = true
	mp, err := Lower(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hf := mp.FuncByName["helper"]
	if hf.ColdEnd <= hf.ColdStart {
		t.Fatal("cold range not recorded")
	}
	// The cold range must come after every hot range.
	for _, fn := range mp.Funcs {
		if fn.End > hf.ColdStart {
			t.Fatalf("cold section %#x overlaps hot %s ending %#x", hf.ColdStart, fn.Name, fn.End)
		}
	}
	if got := mp.FuncAt(hf.ColdStart); got != hf {
		t.Fatal("FuncAt must resolve cold addresses to the owning function")
	}
}

func TestSwitchLowering(t *testing.T) {
	mp := compile(t, `func main(a) { switch (a) { case 1: return 10; case 2: return 20; default: return 30; } }`, false, Options{})
	branches := 0
	for i := range mp.Instrs {
		if mp.Instrs[i].Kind == machine.KBranch {
			branches++
		}
	}
	if branches != 2 {
		t.Fatalf("switch with 2 cases should lower to 2 compare-branches, got %d", branches)
	}
}

func TestInlinedFramesAt(t *testing.T) {
	mp := compile(t, simpleSrc, false, Options{})
	// Some instruction in helper carries a single-frame location.
	h := mp.FuncByName["helper"]
	var got []machine.Frame
	for _, in := range funcInstrs(mp, h) {
		if fr := mp.InlinedFramesAt(in.Addr); fr != nil {
			got = fr
			break
		}
	}
	if len(got) != 1 || got[0].Func != "helper" {
		t.Fatalf("frames = %+v", got)
	}
}

func TestDebugSectionNonEmptyAndDeterministic(t *testing.T) {
	a := compile(t, simpleSrc, true, Options{})
	b := compile(t, simpleSrc, true, Options{})
	if a.DebugSize == 0 {
		t.Fatal("debug section empty")
	}
	if a.DebugSize != b.DebugSize || a.ProbeMetaSize != b.ProbeMetaSize {
		t.Fatal("codegen not deterministic")
	}
}

func TestStripProbeMeta(t *testing.T) {
	mp := compile(t, simpleSrc, true, Options{StripProbeMeta: true})
	if len(mp.Probes) != 0 || mp.ProbeMetaSize != 0 {
		t.Fatal("probe metadata should be stripped")
	}
}

func TestTailCallLowering(t *testing.T) {
	f, err := source.Parse("m", `
func main(a) { return chain(a); }
func chain(x) { return leaf(x + 1); }
func leaf(y) { return y * 2; }
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	// Mark chain's call to leaf as a tail call (what the TCE pass does).
	for _, b := range p.Funcs["chain"].Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpCall && b.Instrs[i].Callee == "leaf" {
				b.Instrs[i].TailCall = true
			}
		}
	}
	mp, err := Lower(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var tcalls, rets int
	ch := mp.FuncByName["chain"]
	for _, in := range funcInstrs(mp, ch) {
		switch in.Kind {
		case machine.KTailCall:
			tcalls++
		case machine.KRet:
			rets++
		}
	}
	if tcalls != 1 {
		t.Fatalf("tail calls in chain = %d", tcalls)
	}
	if rets != 0 {
		t.Fatalf("tail-calling block must suppress its ret, found %d", rets)
	}
}

// funcInstrs returns fn's hot-range instructions, in address order.
func funcInstrs(mp *machine.Prog, fn *machine.Func) []machine.Instr {
	lo := mp.InstrIndexAt(fn.Start)
	hi := lo
	for hi < len(mp.Instrs) && mp.Instrs[hi].Addr < fn.End {
		hi++
	}
	return mp.Instrs[lo:hi]
}
