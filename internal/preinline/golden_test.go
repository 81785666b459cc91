package preinline_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csspgo/internal/machine"
	"csspgo/internal/pgo"
	"csspgo/internal/profdata"
	"csspgo/internal/sampling"
	"csspgo/internal/source"
	"csspgo/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current pre-inliner")

// csProfile builds the program with probes, runs its training requests and
// returns the raw CS profile the engine generates, with the binary.
func csProfile(t *testing.T, files []*source.File, train [][]int64) (*profdata.Profile, *machine.Prog) {
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
	return prof, res.Bin
}

// preInlined runs pgo.TrimAndPreInline on prof and renders what it left:
// the Result's counts, then the text profile.
func preInlined(prof *profdata.Profile, bin *machine.Prog) string {
	trimmed, pre := pgo.TrimAndPreInline(prof, bin, 0)
	return fmt.Sprintf("# trimmed=%d inlined=%d promoted=%d\n%s", trimmed, pre.Inlined, pre.Promoted, profdata.EncodeToString(prof))
}

// checkFunc checks one program: its files and training requests.
type checkFunc func(t *testing.T, name string, files []*source.File, train [][]int64)

// forEachWorkload runs check as a subtest on every workload.
func forEachWorkload(t *testing.T, check checkFunc) {
	for _, name := range workloads.AllNames() {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Load(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			check(t, name, w.Files, w.Train)
		})
	}
}

// forEachExample runs check as a subtest on every examples/ module.
func forEachExample(t *testing.T, check checkFunc) {
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
			check(t, name, []*source.File{f}, pgo.SeededRequests(60, 1, 1000))
		})
	}
}

// The files under testdata hold, for each of the 14 programs, the text
// profile after pgo.TrimAndPreInline (which context is marked, which was
// promoted where, every count) and the Result it returned. They pin the
// decisions, not the speed; -update is only for a change that means to
// move a decision.
func checkPreinlineGolden(t *testing.T, name string, files []*source.File, train [][]int64) {
	t.Helper()
	got := preInlined(csProfile(t, files, train))
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
	forEachWorkload(t, checkPreinlineGolden)
}

func TestPreInlineGoldenOnExamples(t *testing.T) {
	forEachExample(t, checkPreinlineGolden)
}

// TestPreInlineSameAfterTextRoundTrip: the pre-inliner decides the same
// whether it runs on the profile the engine generated (pgo.Pipeline) or on
// that profile's text encoding read back (`csspgo profile`, then
// `csspgo preinline`), so the two routes ship one profile.
func TestPreInlineSameAfterTextRoundTrip(t *testing.T) {
	check := func(t *testing.T, name string, files []*source.File, train [][]int64) {
		prof, bin := csProfile(t, files, train)
		viaText, err := profdata.Decode([]byte(profdata.EncodeToString(prof)))
		if err != nil {
			t.Fatal(err)
		}
		direct, read := preInlined(prof, bin), preInlined(viaText, bin)
		if direct != read {
			t.Errorf("%s: pre-inlined profile differs after a text round trip\nin process  %safter text  %s",
				name, direct[:strings.Index(direct, "\n")+1], read[:strings.Index(read, "\n")+1])
		}
	}
	forEachWorkload(t, check)
	forEachExample(t, check)
}
