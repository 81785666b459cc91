package pgo

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csspgo/internal/profdata"
	"csspgo/internal/sampling"
	"csspgo/internal/source"
	"csspgo/internal/workloads"
)

// The files under testdata/golden were written once, at the last commit
// that still had the serial per-sample batch generator (Workers: 1,
// Stream: false), for every workload and every examples/ module: one text
// profile per kind plus the CS run's UnwindStats. They pin the engine's
// bytes; the serial reference in internal/sampling/reference_test.go covers
// the inputs no golden file does.

// checkGolden is the one table: for each kind, the profile the engine
// generates from the program's training run must equal the golden bytes for
// every worker count and chunk size, both from a materialized sample slice
// and through the live-sink driver, and the CS UnwindStats must match.
func checkGolden(t *testing.T, name string, files []*source.File, train [][]int64) {
	t.Helper()
	golden := func(suffix string) string {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", name+"."+suffix))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	probed, err := Build(files, BuildConfig{Probes: true})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Build(files, BuildConfig{Probes: false})
	if err != nil {
		t.Fatal(err)
	}
	wantStats := golden("cs.stats")
	lbrOnly := DefaultProfileConfig()
	lbrOnly.Stacks = false
	for _, kind := range []struct {
		name    string
		variant Variant
		build   *BuildResult
		pc      ProfileConfig
	}{
		{"cs", FullCS, probed, DefaultProfileConfig()},
		{"probe", ProbeOnly, probed, lbrOnly},
		{"autofdo", AutoFDO, plain, lbrOnly},
	} {
		want := golden(kind.name + ".prof")
		bin := kind.build.Bin
		samples, _, err := CollectSamples(bin, train, kind.pc)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 0} {
			for _, chunk := range []int{1, 7, 0} {
				var got *profdata.Profile
				switch kind.variant {
				case FullCS:
					opts := sampling.DefaultCSSPGOOptions()
					opts.Workers, opts.ChunkSize = workers, chunk
					var st sampling.UnwindStats
					got, st = sampling.GenerateCSSPGO(bin, samples, opts)
					if s := fmt.Sprintf("%+v\n", st); s != wantStats {
						t.Errorf("%s: workers=%d chunk=%d: UnwindStats %swant %s", name, workers, chunk, s, wantStats)
					}
				case ProbeOnly:
					got = sampling.GenerateProbeProfile(bin, samples, sampling.FlatOptions{Workers: workers, ChunkSize: chunk})
				case AutoFDO:
					got = sampling.GenerateAutoFDO(bin, samples, sampling.FlatOptions{Workers: workers, ChunkSize: chunk})
				}
				if profdata.EncodeToString(got) != want {
					t.Errorf("%s/%s: workers=%d chunk=%d differs from golden", name, kind.name, workers, chunk)
				}
			}
			pc := DefaultProfileConfig()
			pc.Workers = workers
			got, st, _, err := CollectAndGenerate(bin, kind.variant, train, pc)
			if err != nil {
				t.Fatal(err)
			}
			if profdata.EncodeToString(got) != want {
				t.Errorf("%s/%s: workers=%d live-sink driver differs from golden", name, kind.name, workers)
			}
			if s := fmt.Sprintf("%+v\n", st); kind.variant == FullCS && s != wantStats {
				t.Errorf("%s: workers=%d live-sink driver: UnwindStats %swant %s", name, workers, s, wantStats)
			}
		}
	}
}

// TestParallelProfilesByteIdenticalOnAllWorkloads pins the engine's output
// on the whole workload corpus against the golden files, for every
// generator, worker count and chunk size.
func TestParallelProfilesByteIdenticalOnAllWorkloads(t *testing.T) {
	for _, name := range workloads.AllNames() {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Load(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name, w.Files, w.Train)
		})
	}
}

// TestUnwindStatsWorkerInvariantOnExamples does the same for every module
// under examples/, whose golden UnwindStats also pin the stats contract:
// context-resolution stats are per-lookup replays of a per-context delta, so
// any split of the sample stream across workers and chunks must reduce to
// the same sums.
func TestUnwindStatsWorkerInvariantOnExamples(t *testing.T) {
	for _, dir := range []string{"quickstart", "contextsensitivity", "indirectcalls", "sourcedrift", "overheadtuning"} {
		t.Run(dir, func(t *testing.T) {
			mods, err := filepath.Glob(filepath.Join("..", "..", "examples", dir, "*.ml"))
			if err != nil || len(mods) == 0 {
				t.Fatalf("no modules under examples/%s (%v)", dir, err)
			}
			for _, path := range mods {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				file := filepath.Base(path)
				f, err := source.Parse(file, string(data))
				if err != nil {
					t.Fatalf("parse %s: %v", path, err)
				}
				checkGolden(t, dir+"."+strings.TrimSuffix(file, ".ml"), []*source.File{f}, SeededRequests(60, 1, 1000))
			}
		})
	}
}

// TestBuildDeterministicOnExamples: the same source must compile to the
// same instruction stream every time — the golden profiles are keyed to the
// training binary. LICM and tail merging used to visit blocks in map order,
// which made examples/contextsensitivity come out 60 or 61 instructions long
// from one run to the next.
func TestBuildDeterministicOnExamples(t *testing.T) {
	mods, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.ml"))
	if err != nil || len(mods) == 0 {
		t.Fatalf("no example modules (%v)", err)
	}
	for _, path := range mods {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want string
		for i := 0; i < 30; i++ {
			f, err := source.Parse(filepath.Base(path), string(data))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Build([]*source.File{f}, BuildConfig{Probes: true})
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			for _, in := range res.Bin.Instrs {
				fmt.Fprintf(&sb, "%d %d %d %d\n", in.Addr, in.Kind, in.Size, in.CalleeID)
			}
			if i == 0 {
				want = sb.String()
			} else if sb.String() != want {
				t.Fatalf("%s: build %d differs from build 0", path, i)
			}
		}
	}
}
