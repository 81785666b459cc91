package ir_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csspgo/internal/ir"
	"csspgo/internal/pgo"
	"csspgo/internal/source"
	"csspgo/internal/workloads"
)

// forEachCorpusFunction calls check on every function of the 14-program
// corpus (the 7 workloads and the 7 examples/ modules) as opt.Optimize
// leaves it, without a profile and with the full CSSPGO one, one subtest
// per program (the pipelines live above package ir, hence the external
// test package).
func forEachCorpusFunction(t *testing.T, check func(t *testing.T, f *ir.Function)) {
	run := func(t *testing.T, files []*source.File, train [][]int64) {
		for _, v := range []pgo.Variant{pgo.Baseline, pgo.FullCS} {
			res, _, err := pgo.Pipeline(files, v, train)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range res.IR.Functions() {
				check(t, f)
			}
		}
	}
	for _, name := range workloads.AllNames() {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Load(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			run(t, w.Files, w.Train)
		})
	}
	mods, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.ml"))
	if err != nil || len(mods) != 7 {
		t.Fatalf("want 7 example modules, got %d (%v)", len(mods), err)
	}
	for _, path := range mods {
		t.Run(filepath.Base(filepath.Dir(path))+"."+strings.TrimSuffix(filepath.Base(path), ".ml"), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := source.Parse(filepath.Base(path), string(data))
			if err != nil {
				t.Fatal(err)
			}
			run(t, []*source.File{f}, pgo.SeededRequests(60, 1, 1000))
		})
	}
}

// TestDomTreeMatchesReferenceOnCorpus runs ir.CheckDomTree and
// ir.CheckReachableOrder over every function of the corpus.
func TestDomTreeMatchesReferenceOnCorpus(t *testing.T) {
	forEachCorpusFunction(t, func(t *testing.T, f *ir.Function) {
		ir.CheckDomTree(t, f)
		ir.CheckReachableOrder(t, f)
	})
}

// TestVerifyAllocs is the allocation gate on Function.Verify, which every
// build runs three times over every function: what a call allocates does
// not grow with the function's instructions — at most 2 allocations (today
// 1, the table of blocks by ID), on the smallest function of the corpus and
// the largest alike.
func TestVerifyAllocs(t *testing.T) {
	forEachCorpusFunction(t, func(t *testing.T, f *ir.Function) {
		if err := f.Verify(); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(5, func() { _ = f.Verify() }); allocs > 2 {
			n := 0
			for _, b := range f.Blocks {
				n += len(b.Instrs)
			}
			t.Errorf("%s (%d instructions): Verify allocates %v times, want at most 2", f.Name, n, allocs)
		}
	})
}
