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

// TestDomTreeMatchesReferenceOnCorpus runs ir.CheckDomTree over every
// function of the 14-program corpus (the 7 workloads and the 7 examples/
// modules) as opt.Optimize leaves it, without a profile and with the full
// CSSPGO one (the pipelines live above package ir, hence the external test
// package).
func TestDomTreeMatchesReferenceOnCorpus(t *testing.T) {
	check := func(t *testing.T, files []*source.File, train [][]int64) {
		for _, v := range []pgo.Variant{pgo.Baseline, pgo.FullCS} {
			res, _, err := pgo.Pipeline(files, v, train)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range res.IR.Functions() {
				ir.CheckDomTree(t, f)
			}
		}
	}
	for _, name := range workloads.AllNames() {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Load(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			check(t, w.Files, w.Train)
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
			check(t, []*source.File{f}, pgo.SeededRequests(60, 1, 1000))
		})
	}
}
