// Package probe implements pseudo-instrumentation (paper §III.A): a pass
// that inserts one pseudo-probe intrinsic per basic block and assigns a
// call probe to every call site, early in the pipeline before any
// aggressive transformation. Probes are profile-correlation anchors: they
// flow through the optimizer as intrinsic instructions and are materialized
// by codegen as *metadata only* (no machine instructions) — unless
// instrumentation mode is requested, in which case the same probes
// materialize as real counter increments (traditional instrumentation PGO
// shares this infrastructure).
package probe

import (
	"slices"

	"csspgo/internal/ir"
)

// InsertProgram inserts probes into every function of the program.
func InsertProgram(p *ir.Program) {
	for _, f := range p.Functions() {
		insert(f)
	}
}

// insert instruments one function: a block probe at the head of every basic
// block and a call probe on every call instruction. Probe IDs are assigned
// deterministically (block order, then instruction order), so recompiling
// identical source reproduces identical IDs — the property profile
// correlation relies on. The function's CFG checksum is computed and stored
// alongside, which lets profile annotation detect stale profiles whose CFG
// shape no longer matches (source drift detection).
func insert(f *ir.Function) {
	if f.NumProbes > 0 {
		return // already instrumented
	}
	// One payload per block and per call that has none yet, from one slab.
	n := len(f.Blocks)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if wantsCallProbe(&b.Instrs[i]) {
				n++
			}
		}
	}
	probes := make([]ir.Probe, n)
	next := int32(1)
	newProbe := func(kind ir.ProbeKind) *ir.Probe {
		p := &probes[next-1]
		*p = ir.Probe{Func: f.Name, ID: next, Kind: kind, Factor: 1}
		next++
		return p
	}
	for _, b := range f.Blocks {
		bp := ir.Instr{Op: ir.OpProbe, Dst: ir.NoReg, Probe: newProbe(ir.ProbeBlock)}
		// In the room irgen leaves every block for it, if it is still there.
		b.Instrs = slices.Insert(b.Instrs, 0, bp)
		for i := range b.Instrs {
			if in := &b.Instrs[i]; wantsCallProbe(in) {
				in.Probe = newProbe(ir.ProbeCall)
			}
		}
	}
	f.NumProbes = next - 1
	f.Checksum = f.CFGChecksum()
}

// wantsCallProbe reports whether in is a call site without a call probe yet.
func wantsCallProbe(in *ir.Instr) bool {
	return (in.Op == ir.OpCall || in.Op == ir.OpICall) && in.Probe == nil
}

// BlockProbe returns the block probe heading b, or nil if b has none (e.g.
// probes were never inserted).
func BlockProbe(b *ir.Block) *ir.Probe {
	for i := range b.Instrs {
		if b.Instrs[i].Op == ir.OpProbe {
			return b.Instrs[i].Probe
		}
	}
	return nil
}

// Index maps a function's own (non-inlined) probe IDs back to the blocks
// and call sites currently carrying them. Multiple blocks may carry copies
// of the same probe after duplication (unrolling); all are returned.
type Index struct {
	Blocks map[int32][]*ir.Block // block-probe ID -> blocks carrying a copy
	Calls  map[int32][]*ir.Instr // call-probe ID -> call instructions
}

// BuildIndex scans f for probes that belong to f itself (InlinedAt == nil).
func BuildIndex(f *ir.Function) *Index {
	idx := &Index{Blocks: map[int32][]*ir.Block{}, Calls: map[int32][]*ir.Instr{}}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Probe == nil || in.Probe.Func != f.Name || in.Probe.InlinedAt != nil {
				continue
			}
			switch in.Probe.Kind {
			case ir.ProbeBlock:
				idx.Blocks[in.Probe.ID] = append(idx.Blocks[in.Probe.ID], b)
			case ir.ProbeCall:
				idx.Calls[in.Probe.ID] = append(idx.Calls[in.Probe.ID], in)
			}
		}
	}
	return idx
}
