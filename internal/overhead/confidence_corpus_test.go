package overhead_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"csspgo/internal/overhead"
	"csspgo/internal/pgo"
	"csspgo/internal/profdata"
	"csspgo/internal/source"
	"csspgo/internal/workloads"
)

// TestScoreReadsCSProfilesFlat: for every golden CS profile, the confidence
// heatmap of the profile equals the heatmap of its flat view, with the
// coverage join against the program's probed build and without a binary
// (the pipelines that build it live above package overhead, hence the
// external test package).
func TestScoreReadsCSProfilesFlat(t *testing.T) {
	programs := map[string][]*source.File{}
	for _, name := range workloads.AllNames() {
		w, err := workloads.Load(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		programs[name] = w.Files
	}
	mods, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.ml"))
	if err != nil || len(mods) != 7 {
		t.Fatalf("want 7 example modules, got %d (%v)", len(mods), err)
	}
	for _, path := range mods {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := source.Parse(filepath.Base(path), string(data))
		if err != nil {
			t.Fatal(err)
		}
		programs[filepath.Base(filepath.Dir(path))+"."+strings.TrimSuffix(filepath.Base(path), ".ml")] = []*source.File{f}
	}
	for name, files := range programs {
		data, err := os.ReadFile(filepath.Join("..", "pgo", "testdata", "golden", name+".cs.prof"))
		if err != nil {
			t.Fatal(err)
		}
		prof, err := profdata.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := pgo.Build(files, pgo.BuildConfig{Probes: true})
		if err != nil {
			t.Fatal(err)
		}
		flat := prof.Flat()
		if got, want := overhead.Score(res.Bin, prof, 797), overhead.Score(res.Bin, flat, 797); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Score of the CS profile differs from Score of its Flat()\ngot  %+v\nwant %+v", name, got, want)
		}
		if got, want := overhead.Score(nil, prof, 797), overhead.Score(nil, flat, 797); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Score without a binary differs from Score of the Flat()", name)
		}
		if got, want := overhead.ScoreProfile(prof, 797), overhead.ScoreProfile(flat, 797); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ScoreProfile of the CS profile differs from ScoreProfile of its Flat()", name)
		}
	}
}
