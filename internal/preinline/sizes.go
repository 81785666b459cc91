// Package preinline implements the paper's offline context-sensitive
// pre-inliner (§III.B, Algorithms 2 and 3): it runs during profile
// generation, makes global top-down inline decisions from the
// context-sensitive profile using function sizes extracted from the
// profiled binary, adjusts the profile accordingly (non-inlined contexts
// merge into base profiles) and persists the decisions (ShouldInline) so a
// ThinLTO-partitioned compiler can honor them without cross-module profile
// adjustment.
package preinline

import (
	"strings"

	"csspgo/internal/machine"
	"csspgo/internal/profdata"
)

// SizeTable holds function sizes extracted from a profiled binary
// (Algorithm 3): per inline-context sizes keyed by the function-name chain
// ("main @ foo @ bar", outermost first), plus standalone sizes. Run only
// reads it, so one table serves every profile of its binary.
type SizeTable struct {
	ByContext map[string]uint64
	ByFunc    map[string]uint64
	// DefaultSize is used for functions absent from the binary entirely.
	DefaultSize uint64
}

// ExtractSizes walks every instruction of the binary and attributes its
// byte size to the inline-frame chain of its debug info — Algorithm 3. All
// prefix chains are materialized (zero-initialized), so the trie can answer
// "this copy was fully optimized away" with an explicit zero.
//
// Each instruction's chain is rendered from its Loc into one reused buffer
// and looked up in seen without a copy. A chain's string is built once,
// when it is first seen, and that is also when its prefixes — substrings
// of it — are materialized: their own prefixes are prefixes of it too.
func ExtractSizes(bin *machine.Prog) *SizeTable {
	st := &SizeTable{
		ByContext:   map[string]uint64{},
		ByFunc:      map[string]uint64{},
		DefaultSize: 20,
	}
	var names []string          // the chain's functions, leaf first
	var buf []byte              // the chain, outermost first
	seen := map[string]string{} // each chain's one string
	for i := range bin.Instrs {
		in := &bin.Instrs[i]
		size := uint64(in.Size)
		if in.Loc == nil {
			// No debug info: attribute to the owning symbol.
			if f := bin.FuncAt(in.Addr); f != nil {
				st.ByFunc[f.Name] += size
			}
			continue
		}
		if in.Loc.Parent == nil {
			st.ByFunc[in.Loc.Func] += size
		}
		names = names[:0]
		for l := in.Loc; l != nil; l = l.Parent {
			names = append(names, l.Func)
		}
		buf = buf[:0]
		for j := len(names) - 1; j >= 0; j-- {
			if len(buf) > 0 {
				buf = append(buf, " @ "...)
			}
			buf = append(buf, names[j]...)
		}
		chain, ok := seen[string(buf)]
		if !ok {
			chain = string(buf)
			seen[chain] = chain
			// Materialize prefixes with zero so absent copies read as
			// "optimized away" rather than "unknown" (Algorithm 3 lines
			// 7-13).
			for end := strings.LastIndex(chain, " @ "); end > 0; end = strings.LastIndex(chain[:end], " @ ") {
				if _, ok := st.ByContext[chain[:end]]; !ok {
					st.ByContext[chain[:end]] = 0
				}
			}
		}
		st.ByContext[chain] += size
	}
	return st
}

// ofContext returns the best size estimate for a profile context: the
// context-specific copy if the profiled binary contains one, else the
// standalone size of the leaf function, else the default. The context's
// function-name chain is rendered into a stack buffer and looked up
// without a copy.
func (st *SizeTable) ofContext(ctx profdata.Context) uint64 {
	var scratch [256]byte
	chain := scratch[:0]
	for i, fr := range ctx {
		if i > 0 {
			chain = append(chain, " @ "...)
		}
		chain = append(chain, fr.Func...)
	}
	if s, ok := st.ByContext[string(chain)]; ok {
		return s
	}
	return st.of(ctx.Leaf())
}

// of returns the standalone size of a function.
func (st *SizeTable) of(name string) uint64 {
	if s, ok := st.ByFunc[name]; ok {
		return s
	}
	return st.DefaultSize
}
