package opt

import (
	"sort"
	"testing"

	"csspgo/internal/analysis"
	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/probe"
	"csspgo/internal/source"
)

// dce, licm and liveOut as they stood before they stopped copying what did
// not change (whole-function liveness per fixpoint iteration and per loop,
// every block's instruction slice reallocated, map-keyed rename tables),
// kept verbatim as the test oracle.

func referenceLiveOut(f *ir.Function) []analysis.BitSet {
	n := len(f.Blocks)
	// Block position by block ID, for following successor edges.
	maxID := 0
	for _, b := range f.Blocks {
		maxID = max(maxID, b.ID)
	}
	pos := make([]int, maxID+1)
	for i, b := range f.Blocks {
		pos[b.ID] = i
	}

	// Four tables of n sets each, carved from one allocation.
	words := (f.NRegs + 63) / 64
	slab := make(analysis.BitSet, 4*n*words)
	table := func() []analysis.BitSet {
		t := make([]analysis.BitSet, n)
		for i := range t {
			t[i], slab = slab[:words:words], slab[words:]
		}
		return t
	}
	in, out, use, def := table(), table(), table(), table()

	// use: read before any write in the block; def: written in the block.
	for i, b := range f.Blocks {
		u, d := use[i], def[i]
		upward := func(r ir.Reg) {
			if !d.Has(int(r)) {
				u.Set(int(r))
			}
		}
		for j := range b.Instrs {
			b.Instrs[j].Uses(upward)
			if dr := b.Instrs[j].Def(); dr != ir.NoReg {
				d.Set(int(dr))
			}
		}
		b.Term.Uses(upward)
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			o := out[i]
			for _, s := range f.Blocks[i].Term.Succs {
				if o.Union(in[pos[s.ID]]) {
					changed = true
				}
			}
			// in = use ∪ (out − def); in only ever grows.
			for w := range o {
				if nv := in[i][w] | use[i][w] | o[w]&^def[i][w]; nv != in[i][w] {
					in[i][w] = nv
					changed = true
				}
			}
		}
	}
	return out
}

func referenceDCE(f *ir.Function) int {
	removed := 0
	for {
		out := referenceLiveOut(f)
		changed := false
		for bi, b := range f.Blocks {
			live := out[bi].Clone()
			markLive := func(r ir.Reg) { live.Set(int(r)) }
			b.Term.Uses(markLive)
			// Walk backwards, deleting dead pure defs.
			kept := b.Instrs[:0]
			// Collect deletions first (backward), then rebuild forward.
			dead := make([]bool, len(b.Instrs))
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := &b.Instrs[i]
				d := in.Def()
				if !in.HasSideEffects() && d != ir.NoReg && !live.Has(int(d)) {
					dead[i] = true
					continue
				}
				if d != ir.NoReg {
					live.Clear(int(d))
				}
				in.Uses(markLive)
			}
			for i := range b.Instrs {
				if dead[i] {
					removed++
					changed = true
					continue
				}
				kept = append(kept, b.Instrs[i])
			}
			b.Instrs = append([]ir.Instr(nil), kept...)
		}
		if !changed {
			return removed
		}
	}
}

func referenceLICM(f *ir.Function) int {
	hoisted := 0
	loops, dt := f.NaturalLoops()
	for _, loop := range loops {
		hoisted += referenceLICMLoop(f, loop, dt)
	}
	if hoisted > 0 {
		f.RebuildCFG()
	}
	return hoisted
}

func referenceLICMLoop(f *ir.Function, loop *ir.Loop, dt *ir.DomTree) int {
	// Registers defined anywhere in the loop.
	defCount := map[ir.Reg]int{}
	for b := range loop.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.NoReg {
				defCount[d]++
			}
		}
	}
	// Globals stored in the loop and calls block load hoisting.
	storedGlobals := map[string]bool{}
	hasCalls := false
	for b := range loop.Blocks {
		for i := range b.Instrs {
			switch b.Instrs[i].Op {
			case ir.OpStoreG:
				storedGlobals[b.Instrs[i].Global] = true
			case ir.OpCall, ir.OpICall:
				hasCalls = true
			}
		}
	}

	dominatesAllLatches := func(b *ir.Block) bool {
		for _, l := range loop.Latches {
			if !dt.Dominates(b, l) {
				return false
			}
		}
		return true
	}

	var preheader *ir.Block
	getPreheader := func() *ir.Block {
		if preheader == nil {
			preheader = referenceEnsurePreheader(f, loop)
		}
		return preheader
	}

	liveouts := referenceLiveOut(f)
	hoisted := 0
	for i, b := range f.Blocks[:len(liveouts)] {
		if !loop.Blocks[b] || !dominatesAllLatches(b) {
			continue
		}
		hoisted += referenceLICMBlock(f, b, defCount, storedGlobals, hasCalls, getPreheader, liveouts[i])
	}
	return hoisted
}

func referenceLICMBlock(f *ir.Function, b *ir.Block,
	defCount map[ir.Reg]int, storedGlobals map[string]bool, hasCalls bool,
	getPreheader func() *ir.Block, liveOutB analysis.BitSet) int {

	rename := map[ir.Reg]ir.Reg{}
	lastHoisted := map[ir.Reg]bool{}

	invariantReg := func(r ir.Reg) bool {
		_, renamed := rename[r]
		return renamed || defCount[r] == 0
	}
	renamed := func(r ir.Reg) ir.Reg {
		if nr, ok := rename[r]; ok {
			return nr
		}
		return r
	}

	hoistedCount := 0
	kept := b.Instrs[:0]
	for i := range b.Instrs {
		in := b.Instrs[i]
		invariant := false
		switch in.Op {
		case ir.OpConst, ir.OpFuncRef, ir.OpBin, ir.OpNot, ir.OpNeg, ir.OpMove, ir.OpSelect:
			invariant = true
		case ir.OpLoadG:
			invariant = !storedGlobals[in.Global] && !hasCalls
		}
		in.Uses(func(r ir.Reg) { invariant = invariant && invariantReg(r) })
		d := in.Def()
		if !invariant || d == ir.NoReg {
			in.MapUses(renamed)
			if d != ir.NoReg {
				delete(rename, d)
				lastHoisted[d] = false
			}
			kept = append(kept, in)
			continue
		}
		ph := getPreheader()
		if ph == nil {
			in.MapUses(renamed)
			delete(rename, d)
			lastHoisted[d] = false
			kept = append(kept, in)
			continue
		}
		clone := in.Clone()
		clone.MapUses(renamed)
		nr := f.NewReg()
		clone.Dst = nr
		ph.Instrs = append(ph.Instrs, clone)
		rename[d] = nr
		lastHoisted[d] = true
		hoistedCount++
	}
	b.Instrs = append([]ir.Instr(nil), kept...)

	b.Term.Uses(func(r ir.Reg) {
		if nr, ok := rename[r]; ok && lastHoisted[r] {
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpMove, Dst: r, A: nr})
			delete(rename, r)
		}
	})
	var residual []ir.Reg
	for r := range rename {
		if lastHoisted[r] && liveOutB.Has(int(r)) {
			residual = append(residual, r)
		}
	}
	sort.Slice(residual, func(i, j int) bool { return residual[i] < residual[j] })
	for _, r := range residual {
		b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpMove, Dst: r, A: rename[r]})
	}
	return hoistedCount
}

func referenceEnsurePreheader(f *ir.Function, loop *ir.Loop) *ir.Block {
	header := loop.Header
	f.RebuildCFG()
	var outside []*ir.Block
	for _, p := range header.Preds {
		if !loop.Blocks[p] {
			outside = append(outside, p)
		}
	}
	if header == f.Entry() {
		return nil
	}
	if len(outside) == 1 && outside[0].Term.Kind == ir.TermJump {
		return outside[0]
	}
	ph := f.NewBlock()
	ph.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{header}}
	var w uint64
	hasW := false
	for _, p := range outside {
		for si, s := range p.Term.Succs {
			if s == header {
				p.Term.Succs[si] = ph
				if si < len(p.Term.EdgeW) {
					w += p.Term.EdgeW[si]
					hasW = true
				}
			}
		}
	}
	ph.Weight = w
	ph.HasWeight = hasW
	ph.Term.EdgeW = []uint64{w}
	f.RebuildCFG()
	return ph
}

// checkAgainstReference runs the reference and the current pass on two
// clones of f (f itself is left alone) and requires the same printed IR,
// the same count and the same number of registers.
func checkAgainstReference(t testing.TB, pass string, f *ir.Function, reference, current func(*ir.Function) int) {
	t.Helper()
	want, got := ir.CloneFunction(f), ir.CloneFunction(f)
	wantN, gotN := reference(want), current(got)
	if gotN != wantN || got.NRegs != want.NRegs {
		t.Errorf("%s on %s: count %d, %d registers; reference says %d, %d", pass, f.Name, gotN, got.NRegs, wantN, want.NRegs)
	}
	if g, w := got.String(), want.String(); g != w {
		t.Errorf("%s on %s differs from the reference:\n%s", pass, f.Name, analysis.DiffLines(w, g))
	}
	if err := got.Verify(); err != nil {
		t.Errorf("%s on %s: %v", pass, f.Name, err)
	}
}

// ReferenceHooks returns Config.InjectAfter hooks that hold DCE and LICM to
// their references on every function of the program at the two points DCE
// runs inside Optimize (after each simplifyCFG) and the one point LICM runs
// (after the bottom-up inliner). The hooks mutate nothing. Exported to the
// corpus test in package opt_test.
func ReferenceHooks(t testing.TB) map[string]func(*ir.Program) {
	return map[string]func(*ir.Program){
		simplifyPass.name: func(p *ir.Program) {
			for _, f := range p.Functions() {
				checkAgainstReference(t, "DCE", f, referenceDCE, dce)
			}
		},
		inlinePass.name: func(p *ir.Program) {
			for _, f := range p.Functions() {
				checkAgainstReference(t, "LICM", f, referenceLICM, licm)
			}
		},
	}
}

// TestDCEAndLICMMatchReferenceOnGeneratedPrograms holds the two passes to
// their references on 320 seeded programs from the generator
// FuzzTranslationValidate draws from, probed, at the points the passes run
// inside the training pipeline.
func TestDCEAndLICMMatchReferenceOnGeneratedPrograms(t *testing.T) {
	n := 320
	if testing.Short() {
		n = 40
	}
	for seed := int64(0); seed < int64(n); seed++ {
		src := generateProgram(seed)
		file, err := source.Parse("ref.ml", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p, err := irgen.Lower(file)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		probe.InsertProgram(p)
		cfg := &Config{Barrier: BarrierWeak}
		cfg.InjectAfter = ReferenceHooks(t)
		if _, err := Optimize(p, cfg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if t.Failed() {
			t.Fatalf("seed %d:\n%s", seed, src)
		}
	}
}

// TestLICMInnerLoopBeforeOuter is the case that rules out taking liveness
// once per function: the inner loop's header has the lower block ID, so it
// is processed first, and its preheader b4 is a block of the outer loop.
// Hoisting out of the inner loop moves the only read of %3 into b4 and
// defines fresh registers there; the outer loop then hoists all of those
// out of b4, and its residual moves must be decided by liveness as it is
// then — %3 is dead after b4, the fresh registers are live — not as it was
// when LICM started, when %3 was live there and the fresh registers did not
// exist.
func TestLICMInnerLoopBeforeOuter(t *testing.T) {
	const n, i, s, r, x, j, c, cj, one, three = 0, 1, 2, 3, 4, 5, 6, 7, 8, 9
	f := ir.NewFunction("f", []string{"n"})
	b0 := f.Entry()
	b1, b2, b3, b4, b5 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Blocks = []*ir.Block{b0, b3, b4, b1, b2, b5}
	f.NRegs = 10
	konst := func(dst ir.Reg, v int64) ir.Instr { return ir.Instr{Op: ir.OpConst, Dst: dst, Value: v} }
	bin := func(k ir.BinKind, dst, a, b ir.Reg) ir.Instr {
		return ir.Instr{Op: ir.OpBin, BinKind: k, Dst: dst, A: a, B: b}
	}
	jump := func(to *ir.Block) ir.Terminator { return ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{to}} }
	branch := func(cond ir.Reg, yes, no *ir.Block) ir.Terminator {
		return ir.Terminator{Kind: ir.TermBranch, Cond: cond, Succs: []*ir.Block{yes, no}}
	}
	b0.Instrs, b0.Term = []ir.Instr{konst(i, 0), konst(s, 0), konst(one, 1)}, jump(b3)
	b3.Instrs, b3.Term = []ir.Instr{bin(ir.BinLt, c, i, n)}, branch(c, b4, b5) // outer header
	b4.Instrs, b4.Term = []ir.Instr{konst(r, 5), konst(j, 0)}, jump(b1)
	b1.Instrs = []ir.Instr{ // inner header and latch
		konst(one, 1), bin(ir.BinAdd, x, r, one), bin(ir.BinAdd, s, s, x),
		bin(ir.BinAdd, j, j, one), konst(three, 3), bin(ir.BinLt, cj, j, three),
	}
	b1.Term = branch(cj, b1, b2)
	b2.Instrs, b2.Term = []ir.Instr{bin(ir.BinAdd, i, i, one)}, jump(b3) // outer latch
	b5.Term = ir.Terminator{Kind: ir.TermReturn, Val: s}
	f.RebuildCFG()
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	loops, _ := f.NaturalLoops()
	if len(loops) != 2 || loops[0].Header != b1 || !loops[1].Blocks[b4] {
		t.Fatalf("want the inner loop (header b1) first and b4 in the outer one:\n%s", f)
	}

	checkAgainstReference(t, "LICM", f, referenceLICM, licm)
	licm(f)
	moved := map[ir.Reg]bool{}
	for _, in := range b4.Instrs {
		if in.Op != ir.OpMove {
			t.Fatalf("b4 keeps %v after the outer loop hoisted everything out of it:\n%s", in.Op, f)
		}
		moved[in.Dst] = true
	}
	// j and the three registers the inner loop's hoisting defined in b4.
	if len(moved) != 4 || moved[r] || !moved[j] {
		t.Fatalf("b4's residual moves write %v, want %%%d and three fresh registers:\n%s", moved, j, f)
	}
}
