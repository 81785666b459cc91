// Context sensitivity: the paper's Fig. 3/4 example, run for real. The
// shared helper scalarOp behaves completely differently depending on its
// caller (addVectorHead routes to scalarAdd, subVectorHead to scalarSub).
// A flat profile smears the two behaviours together; the CSSPGO profiler's
// virtual unwinder separates them into distinct contexts, the pre-inliner
// specializes the inlining per caller, and the post-inline profile stays
// accurate — the exact mechanism behind Fig. 3b.
package main

import (
	_ "embed"
	"fmt"
	"log"
	"strings"

	"csspgo"
)

// The MiniLang module lives in its own file so `csspgo lint` (and the other
// CLI subcommands) can consume it directly.
//
//go:embed vector.ml
var vectorApp string

func main() {
	mods := []csspgo.Module{{Name: "vector.ml", Source: vectorApp}}
	train := make([][]int64, 50)
	for i := range train {
		train[i] = []int64{int64(i * 13), 0}
	}

	// Build the probed training binary and collect both profile flavours.
	base, err := csspgo.Build(mods, csspgo.BuildConfig{Probes: true})
	if err != nil {
		log.Fatal(err)
	}
	flat, err := csspgo.CollectProfile(base, csspgo.ProbeOnly, train)
	if err != nil {
		log.Fatal(err)
	}
	cs, err := csspgo.CollectProfile(base, csspgo.FullCS, train)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("— flat (context-insensitive) view of scalarOp —")
	if fp := flat.Funcs["scalarOp"]; fp != nil {
		for _, c := range fp.Calls {
			fmt.Printf("  callsite %s -> %-10s %d samples\n", c.Loc, c.Callee, c.N)
		}
		fmt.Println("  (both callees blended: inlining must clone both paths everywhere)")
	}

	fmt.Println("\n— context-sensitive view —")
	for _, key := range cs.SortedContextKeys() {
		cp := cs.Contexts[key]
		if cp.Name != "scalarOp" && !strings.Contains(key, "scalarOp") {
			continue
		}
		mark := ""
		if cp.ShouldInline {
			mark = "   [pre-inliner: inline]"
		}
		fmt.Printf("  [%s] head=%d total=%d%s\n", key, cp.HeadSamples, cp.TotalSamples, mark)
	}

	// Rebuild with the CS profile and show the specialized result.
	opt, err := csspgo.Build(mods, csspgo.BuildConfig{
		Probes: true, Profile: cs, UsePreInlineDecisions: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCS build: %d context-driven inlines; %d functions remain in the binary\n",
		opt.Stats.SampleInlines, len(opt.Bin.Funcs))
	for _, fn := range opt.Bin.Funcs {
		fmt.Printf("  %-16s %4d bytes\n", fn.Name, fn.End-fn.Start)
	}
	fmt.Println("(scalarAdd/scalarSub were each inlined only along their own caller's path)")
}
