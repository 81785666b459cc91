package pgo

import (
	"os"
	"path/filepath"
	"testing"

	"csspgo/internal/profdata"
	"csspgo/internal/sampling"
	"csspgo/internal/workloads"
)

// checkCanonical fails unless every context of p sits under its canonical
// key and names its leaf: the pre-inliner and Profile.Promote derive a
// parent's or a callee's key by slicing a key, which is only sound when
// key == fp.Context.Key().
func checkCanonical(t *testing.T, what string, p *profdata.Profile) {
	t.Helper()
	for key, fp := range p.Contexts {
		if k := fp.Context.Key(); k != key || fp.Name != fp.Context.Leaf() {
			t.Errorf("%s: context stored under %q is %q with leaf %q, named %q", what, key, k, fp.Context.Leaf(), fp.Name)
		}
	}
	for name, fp := range p.Funcs {
		if fp.Name != name || len(fp.Context) != 0 {
			t.Errorf("%s: base profile stored under %q is named %q with context %q", what, name, fp.Name, fp.Context.Key())
		}
	}
}

// TestContextKeysAreCanonical checks the key invariant on every profile
// source: both decoders over the 42 golden text profiles, and the engine
// (GenerateCSSPGO), profdata.MergeShards and TrimAndPreInline on every
// workload.
func TestContextKeysAreCanonical(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.prof"))
	if err != nil || len(paths) != 42 {
		t.Fatalf("want 42 golden text profiles, got %d (%v)", len(paths), err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := profdata.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		checkCanonical(t, path+" (text)", p)
		if p, err = profdata.Decode(profdata.EncodeBinary(p)); err != nil {
			t.Fatalf("%s: binary: %v", path, err)
		}
		checkCanonical(t, path+" (binary)", p)
	}
	for _, name := range workloads.AllNames() {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Load(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Build(w.Files, BuildConfig{Probes: true})
			if err != nil {
				t.Fatal(err)
			}
			samples, _, err := CollectSamples(res.Bin, w.Train, DefaultProfileConfig())
			if err != nil {
				t.Fatal(err)
			}
			opts := sampling.DefaultCSSPGOOptions()
			prof, _ := sampling.GenerateCSSPGO(res.Bin, samples, opts)
			if len(prof.Contexts) == 0 {
				t.Fatal("no contexts generated")
			}
			checkCanonical(t, "GenerateCSSPGO", prof)
			half := len(samples) / 2
			first, _ := sampling.GenerateCSSPGO(res.Bin, samples[:half], opts)
			second, _ := sampling.GenerateCSSPGO(res.Bin, samples[half:], opts)
			checkCanonical(t, "MergeShards", profdata.MergeShards([]*profdata.Profile{first, second}))
			TrimAndPreInline(prof, res.Bin, 0)
			checkCanonical(t, "TrimAndPreInline", prof)
		})
	}
}
