package preinline_test

import (
	"maps"
	"strings"
	"testing"

	"csspgo/internal/machine"
	"csspgo/internal/pgo"
	"csspgo/internal/preinline"
	"csspgo/internal/source"
)

// referenceExtractSizes is ExtractSizes as it was before it read the debug
// chains in place and built each chain string once, kept verbatim (package
// prefixes added) as the reference the rewrite is held to.
func referenceExtractSizes(bin *machine.Prog) *preinline.SizeTable {
	st := &preinline.SizeTable{
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
				st.ByFunc[f.Name] += uint64(machine.SizeOf(in.Kind))
			}
			continue
		}
		// frames are leaf-first; build the outermost-first name chain.
		names := make([]string, len(frames))
		for j, fr := range frames {
			names[len(frames)-1-j] = fr.Func
		}
		chain := strings.Join(names, " @ ")
		st.ByContext[chain] += uint64(machine.SizeOf(in.Kind))
		if len(frames) == 1 {
			st.ByFunc[frames[0].Func] += uint64(machine.SizeOf(in.Kind))
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

// TestExtractSizesMatchesReference holds ExtractSizes to the reference on
// the two binaries of every workload it reads sizes from: the probed
// training build (what pgo.TrimAndPreInline is handed) and the FullCS
// rebuild, whose inlined copies give long chains.
func TestExtractSizesMatchesReference(t *testing.T) {
	inlined := 0
	forEachWorkload(t, func(t *testing.T, name string, files []*source.File, train [][]int64) {
		probed, err := pgo.Build(files, pgo.BuildConfig{Probes: true})
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, _, err := pgo.Pipeline(files, pgo.FullCS, train)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []struct {
			what string
			bin  *machine.Prog
		}{{"probed", probed.Bin}, {"fullcs", rebuilt.Bin}} {
			want, got := referenceExtractSizes(b.bin), preinline.ExtractSizes(b.bin)
			if !maps.Equal(want.ByContext, got.ByContext) {
				t.Errorf("%s %s: ByContext has %d chains, want %d (or the sizes differ)", name, b.what, len(got.ByContext), len(want.ByContext))
			}
			if !maps.Equal(want.ByFunc, got.ByFunc) || want.DefaultSize != got.DefaultSize {
				t.Errorf("%s %s: ByFunc or DefaultSize differs", name, b.what)
			}
			for chain := range want.ByContext {
				if strings.Contains(chain, " @ ") {
					inlined++
				}
			}
		}
	})
	if inlined == 0 {
		t.Fatal("no binary has an inlined chain")
	}
	t.Logf("%d inlined chains checked", inlined)
}
