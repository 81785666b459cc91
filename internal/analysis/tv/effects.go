// Package tv is the translation-validation layer: after every optimization
// pass in checked mode it proves the before/after IR semantically
// equivalent, so a pass that miscompiles while keeping profile counts
// balanced no longer sails through the flow-conservation checks.
//
// Three engines cooperate, in increasing cost order:
//
//   - a purity/side-effect analysis over the IR (this file) classifies
//     calls, global accesses, probes and counters into an effect lattice,
//     telling the validator which code motion is legal and which probe
//     insertions must stay observationally invisible;
//   - a CFG bisimulation with symbolic block matching (bisim.go) proves
//     structure-preserving passes equivalent block by block, matching
//     blocks on their I/O behavior up to register renaming;
//   - a differential-execution oracle (oracle.go, interp.go) runs a seeded
//     IR interpreter on corpus inputs and compares outputs and observable
//     effect traces pre/post pass — the backstop that catches whatever the
//     static engines' conservatism lets through for restructuring passes.
//
// The package sits under internal/analysis and must not import internal/opt
// (the optimizer imports it); violations come back as analysis.Diagnostics
// that the checked pipeline wraps into pass-attributed PassViolations.
package tv

import (
	"sort"

	"csspgo/internal/ir"
)

// effect is a bitmask lattice of observable behaviors an instruction (or
// transitively a function) may have. MiniLang has no I/O: the observable
// events of a program are its global stores and instrumentation counter
// increments, so those — plus the transfers that can reach them — are what
// the lattice tracks. Join is bitwise-or; bottom (0) is pure.
type effect uint8

// Effect lattice bits.
const (
	// effReadGlobal: may read a global (legal to reorder against other
	// reads, not against stores).
	effReadGlobal effect = 1 << iota
	// effWriteGlobal: may store to a global — an observable event.
	effWriteGlobal
	// effCounter: increments an instrumentation counter (Instr PGO);
	// observable in the counter vector, so passes may not invent them.
	effCounter
	// effICall: performs an indirect call whose callee set is unknown;
	// conservatively may read and write every global.
	effICall
)

// funcEffects is one function's transitive effect summary over its
// reachable blocks: the joined mask plus the may-read and may-write global
// sets. All=true means the summary was poisoned by an indirect call and the
// sets stand for "every global".
type funcEffects struct {
	Mask   effect
	Reads  map[string]bool
	Writes map[string]bool
	// All: an indirect call makes the callee set — and thus the global
	// footprint — unknowable statically.
	All bool
}

// clone returns a deep copy of the summary.
func (fe *funcEffects) clone() *funcEffects {
	c := &funcEffects{Mask: fe.Mask, All: fe.All,
		Reads: map[string]bool{}, Writes: map[string]bool{}}
	for g := range fe.Reads {
		c.Reads[g] = true
	}
	for g := range fe.Writes {
		c.Writes[g] = true
	}
	return c
}

// merge joins other into fe, reporting whether fe changed.
func (fe *funcEffects) merge(other *funcEffects) bool {
	changed := false
	if m := fe.Mask | other.Mask; m != fe.Mask {
		fe.Mask = m
		changed = true
	}
	if other.All && !fe.All {
		fe.All = true
		changed = true
	}
	for g := range other.Reads {
		if !fe.Reads[g] {
			fe.Reads[g] = true
			changed = true
		}
	}
	for g := range other.Writes {
		if !fe.Writes[g] {
			fe.Writes[g] = true
			changed = true
		}
	}
	return changed
}

// writeSet renders the may-write set sorted, for deterministic diagnostics.
func (fe *funcEffects) writeSet() []string {
	out := make([]string, 0, len(fe.Writes))
	for g := range fe.Writes {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// instrEffect classifies one instruction's direct effect (not counting
// callee bodies; analyzeProgram folds those in transitively).
func instrEffect(in *ir.Instr) effect {
	switch in.Op {
	case ir.OpLoadG:
		return effReadGlobal
	case ir.OpStoreG:
		return effWriteGlobal
	case ir.OpCounter:
		return effCounter
	case ir.OpICall:
		return effICall
	}
	// OpCall is handled by the callgraph fixpoint; OpProbe and the pure
	// value ops are bottom.
	return 0
}

// analyzeProgram computes per-function transitive effect summaries with a
// callgraph fixpoint: each function starts from the direct effects of its
// reachable blocks, then absorbs its direct callees' summaries until
// nothing changes (recursion converges because the lattice is finite).
// Unreachable blocks are excluded — they cannot execute, so removing them
// must not change a summary.
func analyzeProgram(p *ir.Program) map[string]*funcEffects {
	effs := map[string]*funcEffects{}
	callees := map[string][]string{}
	for _, f := range p.Functions() {
		fe := &funcEffects{Reads: map[string]bool{}, Writes: map[string]bool{}}
		var calls []string
		for _, b := range f.ReachableOrder() {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				fe.Mask |= instrEffect(in)
				switch in.Op {
				case ir.OpLoadG:
					fe.Reads[in.Global] = true
				case ir.OpStoreG:
					fe.Writes[in.Global] = true
				case ir.OpCall:
					calls = append(calls, in.Callee)
				case ir.OpICall:
					fe.All = true
				}
			}
		}
		effs[f.Name] = fe
		callees[f.Name] = calls
	}
	fixpoint := func() {
		for changed := true; changed; {
			changed = false
			for _, f := range p.Functions() {
				fe := effs[f.Name]
				for _, callee := range callees[f.Name] {
					ce := effs[callee]
					if ce == nil {
						continue // call to a function outside the program
					}
					if fe.merge(ce) {
						changed = true
					}
				}
			}
		}
	}
	fixpoint()
	// An icall can reach anything whose address fits in a register: fold
	// the whole-program join into the poisoned summaries, then propagate to
	// their callers with one more fixpoint round.
	anyAll := false
	for _, fe := range effs {
		if fe.All {
			anyAll = true
			break
		}
	}
	if anyAll {
		everything := &funcEffects{Reads: map[string]bool{}, Writes: map[string]bool{}}
		for _, fe := range effs {
			everything.merge(fe)
		}
		for _, fe := range effs {
			if fe.All {
				fe.merge(everything)
			}
		}
		fixpoint()
	}
	return effs
}
