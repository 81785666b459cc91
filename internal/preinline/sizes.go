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
// ("main @ foo @ bar", outermost first), plus standalone sizes.
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
func ExtractSizes(bin *machine.Prog) *SizeTable {
	st := &SizeTable{
		ByContext:   map[string]uint64{},
		ByFunc:      map[string]uint64{},
		DefaultSize: 20,
	}
	for i := range bin.Instrs {
		in := &bin.Instrs[i]
		frames := bin.InlinedFramesAt(in.Addr)
		if len(frames) == 0 {
			// No debug info: attribute to the owning symbol.
			if f := bin.FuncAt(in.Addr); f != nil {
				st.ByFunc[f.Name] += uint64(in.Size)
			}
			continue
		}
		// frames are leaf-first; build the outermost-first name chain.
		names := make([]string, len(frames))
		for j, fr := range frames {
			names[len(frames)-1-j] = fr.Func
		}
		chain := strings.Join(names, " @ ")
		st.ByContext[chain] += uint64(in.Size)
		if len(frames) == 1 {
			st.ByFunc[frames[0].Func] += uint64(in.Size)
		}
		// Materialize prefixes with zero so absent copies read as
		// "optimized away" rather than "unknown" (Algorithm 3 lines 7-13).
		for j := len(names) - 1; j > 0; j-- {
			prefix := strings.Join(names[:j], " @ ")
			if _, ok := st.ByContext[prefix]; !ok {
				st.ByContext[prefix] = 0
			}
		}
	}
	return st
}

// nameChain renders a profile context as its function-name chain.
func nameChain(ctx profdata.Context) string {
	names := make([]string, len(ctx))
	for i, fr := range ctx {
		names[i] = fr.Func
	}
	return strings.Join(names, " @ ")
}

// ofContext returns the best size estimate for a profile context: the
// context-specific copy if the profiled binary contains one, else the
// standalone size of the leaf function, else the default.
func (st *SizeTable) ofContext(ctx profdata.Context) uint64 {
	if s, ok := st.ByContext[nameChain(ctx)]; ok {
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
