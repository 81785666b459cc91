package opt_test

import (
	"slices"
	"testing"

	"csspgo/internal/ir"
	"csspgo/internal/machine"
	"csspgo/internal/opt"
	"csspgo/internal/pgo"
	"csspgo/internal/profdata"
	"csspgo/internal/sampling"
	"csspgo/internal/sim"
	"csspgo/internal/source"
)

// TestContextKeyForCallMatchesGenerator pins the one context key space the
// profile generator and the sample inliner share. For every call probe of
// the probed build of each corpus program, the key the inliner looks up for
// the call must be a context the generator mints for a range through it:
// the caller frames the unwinder recovers from the call's return address,
// plus the callee as leaf. The range is one synthetic sample covering the
// callee's hot section under a stack whose only caller frame is that return
// address.
func TestContextKeyForCallMatchesGenerator(t *testing.T) {
	checked, inlined := 0, 0
	forEachCorpusProgram(t, func(t *testing.T, files []*source.File, _ [][]int64) {
		res, err := pgo.Build(files, pgo.BuildConfig{Probes: true})
		if err != nil {
			t.Fatal(err)
		}
		bin := res.Bin
		ix := bin.Index()
		opts := sampling.CSSPGOOptions{Workers: 1}
		for i := range bin.Instrs {
			call := &bin.Instrs[i]
			if call.Kind != machine.KCall || i+1 == len(bin.Instrs) {
				continue
			}
			var rec *machine.ProbeRec
			for _, pi := range ix.ProbeIndicesAt(call.Addr) {
				if r := &bin.Probes[pi]; r.Kind == ir.ProbeCall {
					rec = r
					break
				}
			}
			if rec == nil {
				continue
			}
			callee := bin.Funcs[call.Ref]
			in := &ir.Instr{Op: ir.OpCall, Ext: &ir.Operands{Sym: callee.Name},
				Probe: &ir.Probe{Func: rec.Func, ID: rec.ID, Kind: rec.Kind, Factor: rec.Factor, InlinedAt: rec.InlinedAt}}
			key := opt.ContextKeyForCall(in, callee.Name)
			want, err := profdata.ParseContext(key)
			if err != nil {
				t.Fatalf("key %q: %v", key, err)
			}

			// The newest record returns from the callee's last hot
			// instruction; the stack leaf lags it (still in the callee), so
			// the record's frame effect is not undone and the range
			// [callee entry, last instruction] runs under the one caller
			// frame the stack holds.
			last := ix.InstrIndexAt(callee.Start)
			for last+1 < len(bin.Instrs) && bin.Instrs[last+1].Addr < callee.End {
				last++
			}
			resume := bin.Instrs[i+1].Addr
			s := sim.Sample{
				LBR: []sim.BranchRec{
					{From: bin.Instrs[last].Addr, To: resume},
					{From: call.Addr, To: callee.Start},
				},
				Stack: []uint64{callee.Start, resume},
			}
			prof, _ := sampling.GenerateCSSPGO(bin, []sim.Sample{s}, opts)
			if prof.Contexts[key] == nil {
				t.Errorf("call at %#x in %s: the inliner looks up %q, the generator minted %q",
					call.Addr, rec.Func, key, prof.SortedContextKeys())
				continue
			}
			for _, k := range prof.SortedContextKeys() {
				got := prof.Contexts[k].Context
				if len(got) < len(want) || !slices.Equal(got[:len(want)-1], want[:len(want)-1]) || got[len(want)-1].Func != callee.Name {
					t.Errorf("call at %#x: minted %q does not extend the caller frames of %q", call.Addr, k, key)
				}
			}
			checked++
			if rec.InlinedAt != nil {
				inlined++
			}
		}
	})
	// Programs the -O2 inliner flattens keep no call; the corpus as a
	// whole must still cover calls both outside and inside inlined code.
	if checked == 0 || inlined == 0 || inlined == checked {
		t.Fatalf("checked %d call probes, %d of them in inlined code", checked, inlined)
	}
	t.Logf("%d call probes checked, %d of them in inlined code", checked, inlined)
}
