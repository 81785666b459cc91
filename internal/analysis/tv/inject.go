package tv

import (
	"fmt"
	"sort"

	"csspgo/internal/ir"
)

// Miscompile injection: deliberate, deterministic pass-bug simulations in
// the spirit of internal/drift's profile-fault harness. Each mutation keeps
// profile flow balanced (edge weights travel with their edges, merged
// weights sum), so the PR-1 flow-conservation checks stay green — proving
// that the translation validator, not the flow checker, is what catches the
// miscompile.

// Injection enumerates the supported miscompile kinds.
type Injection uint8

// Injection kinds.
const (
	// injDropBranch rewrites a conditional branch into an unconditional
	// jump to its taken successor (edge weights merged, flow preserved).
	injDropBranch Injection = iota
	// injSwapSuccessors swaps a branch's taken/not-taken successors along
	// with their edge weights — polarity inverted, flow still balanced.
	injSwapSuccessors
	// injEffectfulProbe gives a pseudo-probe a real side effect (a global
	// store), violating the observational-invisibility contract.
	injEffectfulProbe
	// injDropStore deletes a global store, erasing an observable event.
	injDropStore
	// injClobberReturn overwrites main's return register with a constant
	// right before the return.
	injClobberReturn
)

var injNames = map[Injection]string{
	injDropBranch:     "drop-branch",
	injSwapSuccessors: "swap-successors",
	injEffectfulProbe: "effectful-probe",
	injDropStore:      "drop-store",
	injClobberReturn:  "clobber-return",
}

func (k Injection) String() string { return injNames[k] }

// injections lists every kind in declaration order (the CLI matrix).
func injections() []Injection {
	return []Injection{injDropBranch, injSwapSuccessors, injEffectfulProbe,
		injDropStore, injClobberReturn}
}

// InjectionNames lists every kind's CLI name in declaration order.
func InjectionNames() []string {
	names := make([]string, 0, len(injNames))
	for _, k := range injections() {
		names = append(names, k.String())
	}
	return names
}

// ParseInjection resolves a kind by its CLI name.
func ParseInjection(name string) (Injection, error) {
	for k, n := range injNames {
		if n == name {
			return k, nil
		}
	}
	var names []string
	for _, n := range injNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return 0, fmt.Errorf("tv: unknown injection %q (have %v)", name, names)
}

// injSite is one eligible mutation point.
type injSite struct {
	f     *ir.Function
	b     *ir.Block
	instr int // instruction index, -1 for terminator sites
}

// Apply mutates p with the given injection kind, choosing the site
// deterministically from the seed. Sites in main (and for probes, in entry
// blocks) are preferred — they execute on every corpus input, so the bug is
// observable, not latent. Returns a description of what was injected and
// whether an eligible site existed.
func Apply(p *ir.Program, kind Injection, seed uint64) (string, bool) {
	sites := collectSites(p, kind)
	if len(sites) == 0 {
		return "", false
	}
	rng := seed*0x9e3779b97f4a7c15 + 0xda7a_b10b
	s := sites[splitmix64(&rng)%uint64(len(sites))]

	switch kind {
	case injDropBranch:
		t := s.b.Term // copy: the field is about to be replaced
		w := uint64(0)
		for _, ew := range t.EdgeW {
			w += ew
		}
		taken := t.Succs[0]
		s.b.Term = ir.Terminator{Kind: ir.TermJump, Cond: ir.NoReg, Val: ir.NoReg,
			Succs: []*ir.Block{taken}, Loc: t.Loc}
		if len(t.EdgeW) > 0 {
			s.b.Term.EdgeW = []uint64{w}
		}
		s.f.RebuildCFG()
		return fmt.Sprintf("dropped branch in %s b%d (now always jumps to b%d)",
			s.f.Name, s.b.ID, taken.ID), true

	case injSwapSuccessors:
		t := &s.b.Term
		t.Succs[0], t.Succs[1] = t.Succs[1], t.Succs[0]
		if len(t.EdgeW) == 2 {
			t.EdgeW[0], t.EdgeW[1] = t.EdgeW[1], t.EdgeW[0]
		}
		return fmt.Sprintf("swapped branch successors in %s b%d", s.f.Name, s.b.ID), true

	case injEffectfulProbe:
		g := p.GOrder[0]
		tmp := s.f.NewReg()
		probe := s.b.Instrs[s.instr]
		inject := []ir.Instr{
			{Op: ir.OpConst, Dst: tmp, Value: int64(probe.Probe.ID) + 40_000, Loc: probe.Loc},
			{Op: ir.OpStoreG, A: tmp, Ext: &ir.Operands{Sym: g}, Index: ir.NoReg, Loc: probe.Loc},
		}
		rest := append(inject, s.b.Instrs[s.instr+1:]...)
		s.b.Instrs = append(s.b.Instrs[:s.instr+1:s.instr+1], rest...)
		return fmt.Sprintf("gave probe %s:%d in %s b%d a real side effect (store to %s)",
			probe.Probe.Func, probe.Probe.ID, s.f.Name, s.b.ID, g), true

	case injDropStore:
		st := s.b.Instrs[s.instr]
		s.b.Instrs = append(s.b.Instrs[:s.instr], s.b.Instrs[s.instr+1:]...)
		return fmt.Sprintf("dropped store to %s in %s b%d", st.Sym(), s.f.Name, s.b.ID), true

	case injClobberReturn:
		t := &s.b.Term
		s.b.Instrs = append(s.b.Instrs, ir.Instr{
			Op: ir.OpConst, Dst: t.Val, Value: 12345, Loc: t.Loc,
		})
		return fmt.Sprintf("clobbered return value in %s b%d", s.f.Name, s.b.ID), true
	}
	return "", false
}

// collectSites enumerates eligible sites for a kind, deterministically
// ordered, restricted to the always-executed subset when one exists.
func collectSites(p *ir.Program, kind Injection) []injSite {
	var all, preferred []injSite
	for _, f := range p.Functions() {
		inMain := f.Name == "main"
		for _, b := range f.ReachableOrder() {
			switch kind {
			case injDropBranch, injSwapSuccessors:
				t := &b.Term
				if t.Kind == ir.TermBranch && t.Succs[0] != t.Succs[1] {
					s := injSite{f: f, b: b, instr: -1}
					all = append(all, s)
					if inMain {
						preferred = append(preferred, s)
					}
				}
			case injEffectfulProbe:
				if len(p.GOrder) == 0 {
					continue
				}
				for i := range b.Instrs {
					if b.Instrs[i].Op == ir.OpProbe && b.Instrs[i].Probe != nil {
						s := injSite{f: f, b: b, instr: i}
						all = append(all, s)
						if inMain && b == f.Entry() {
							preferred = append(preferred, s)
						}
					}
				}
			case injDropStore:
				for i := range b.Instrs {
					if b.Instrs[i].Op == ir.OpStoreG {
						s := injSite{f: f, b: b, instr: i}
						all = append(all, s)
						if inMain {
							preferred = append(preferred, s)
						}
					}
				}
			case injClobberReturn:
				if inMain && b.Term.Kind == ir.TermReturn && b.Term.Val != ir.NoReg {
					all = append(all, injSite{f: f, b: b, instr: -1})
				}
			}
		}
	}
	if len(preferred) > 0 {
		return preferred
	}
	return all
}
