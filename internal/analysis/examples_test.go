package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"csspgo/internal/analysis"
	"csspgo/internal/pgo"
	"csspgo/internal/source"
)

// Acceptance check from the issue: the flow-conservation lint passes on all
// examples/ programs after Optimize with inference enabled. This runs each
// example's MiniLang module through the full CSSPGO pipeline (train →
// profile → pre-inline → rebuild) and then lints the optimized IR and the
// collected profile.
func TestExamplesFlowConservationAfterFullCS(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipelines over every example")
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.ml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 7 {
		t.Fatalf("examples glob found only %v — example modules moved?", paths)
	}

	train := make([][]int64, 40)
	for i := range train {
		train[i] = []int64{int64(i * 31), int64(i % 9)}
	}

	for _, path := range paths {
		path := path
		name := filepath.Base(filepath.Dir(path)) + "/" + filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := source.Parse(path, string(data))
			if err != nil {
				t.Fatal(err)
			}
			res, prof, err := pgo.Pipeline([]*source.File{f}, pgo.FullCS, train)
			if err != nil {
				t.Fatal(err)
			}

			opts := analysis.DefaultOptions()
			for _, d := range analysis.CheckProgram(res.IR, opts) {
				if d.Sev == analysis.SevError {
					t.Errorf("optimized IR: %s", d)
				}
			}
			// Pipeline keeps no snapshot of the program it lowers; a training
			// Build lowers the same program and keeps one.
			probed, err := pgo.Build([]*source.File{f}, pgo.BuildConfig{Probes: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range analysis.CheckProfile(prof, probed.FreshIR) {
				if d.Sev == analysis.SevError {
					t.Errorf("profile: %s", d)
				}
			}
		})
	}
}
