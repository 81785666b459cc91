package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csspgo/internal/pgo"
	"csspgo/internal/source"
)

func trainingBinary(t *testing.T) string {
	t.Helper()
	f, err := source.Parse("m.ml", `
func main(n, unused) {
	var s = 0;
	for (var i = 0; i < n + 50; i = i + 1) { s = s + i; }
	return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pgo.Build([]*source.File{f}, pgo.BuildConfig{Probes: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "app.bin")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := res.Bin.Save(out); err != nil {
		t.Fatal(err)
	}
	return path
}

// -bound 0 used to divide by zero in profgen's private copy of the request
// generator; the shared pgo.SeededRequests clamps it.
func TestRunBoundZero(t *testing.T) {
	bin := trainingBinary(t)
	for _, bound := range []int64{0, -7} {
		out := filepath.Join(t.TempDir(), "app.prof")
		gc := genConfig{kind: "cs", n: 20, seed: 1, bound: bound, period: 97, pebs: true, workers: 1}
		if err := run(bin, out, gc); err != nil {
			t.Fatalf("bound=%d: %v", bound, err)
		}
		if data, err := os.ReadFile(out); err != nil || len(data) == 0 {
			t.Fatalf("bound=%d: no profile written (%v)", bound, err)
		}
	}
}

// An unknown -kind must be rejected before the binary is even opened, not
// after the whole training simulation has run.
func TestRunRejectsUnknownKindFirst(t *testing.T) {
	err := run(filepath.Join(t.TempDir(), "missing.bin"), os.DevNull, genConfig{kind: "cz", n: 1, bound: 10})
	if err == nil || !strings.Contains(err.Error(), `unknown profile kind "cz"`) {
		t.Fatalf("want an unknown-kind error, got %v", err)
	}
}
