package preinline_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csspgo/internal/pgo"
	"csspgo/internal/profdata"
	"csspgo/internal/sampling"
	"csspgo/internal/source"
	"csspgo/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current pre-inliner")

// The files under testdata were written by the pre-inliner that re-sorted
// the whole context map inside every rootedContexts/childContexts call: for
// each of the 14 programs that have golden profiles under
// internal/pgo/testdata/golden, the text profile after pgo.TrimAndPreInline
// (which context is marked, which was promoted where, every count) and the
// Result it returned. They pin the decisions, not the speed; -update is
// only for a change that means to move a decision.
func checkPreinlineGolden(t *testing.T, name string, files []*source.File, train [][]int64) {
	t.Helper()
	res, err := pgo.Build(files, pgo.BuildConfig{Probes: true})
	if err != nil {
		t.Fatal(err)
	}
	samples, _, err := pgo.CollectSamples(res.Bin, train, pgo.DefaultProfileConfig())
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := sampling.GenerateCSSPGO(res.Bin, samples, sampling.DefaultCSSPGOOptions())
	trimmed, pre := pgo.TrimAndPreInline(prof, res.Bin, 0)
	got := fmt.Sprintf("# trimmed=%d inlined=%d promoted=%d\n%s", trimmed, pre.Inlined, pre.Promoted, profdata.EncodeToString(prof))

	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s: trimmed and pre-inlined profile differs from %s\ngot header  %swant header %s",
			name, path, got[:strings.Index(got, "\n")+1], want[:strings.Index(string(want), "\n")+1])
	}
}

func TestPreInlineGoldenOnAllWorkloads(t *testing.T) {
	for _, name := range workloads.AllNames() {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Load(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkPreinlineGolden(t, name, w.Files, w.Train)
		})
	}
}

func TestPreInlineGoldenOnExamples(t *testing.T) {
	mods, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.ml"))
	if err != nil || len(mods) == 0 {
		t.Fatalf("no example modules (%v)", err)
	}
	for _, path := range mods {
		dir, file := filepath.Base(filepath.Dir(path)), filepath.Base(path)
		name := dir + "." + strings.TrimSuffix(file, ".ml")
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := source.Parse(file, string(data))
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			checkPreinlineGolden(t, name, []*source.File{f}, pgo.SeededRequests(60, 1, 1000))
		})
	}
}
