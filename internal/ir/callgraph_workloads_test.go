package ir_test

import (
	"testing"

	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/workloads"
)

// TestSCCQueriesMatchFreshScanOnWorkloads runs ir.CheckSCCQueries over the
// call graph of every workload (the lowering lives above package ir, hence
// the external test package), all built in one scratch, as the inliners of
// one build share theirs.
func TestSCCQueriesMatchFreshScanOnWorkloads(t *testing.T) {
	var s ir.CallGraphScratch
	for _, name := range workloads.AllNames() {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Load(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			p, err := irgen.Lower(w.Files...)
			if err != nil {
				t.Fatal(err)
			}
			ir.CheckSCCQueries(t, ir.BuildCallGraphIn(p, &s))
		})
	}
}
