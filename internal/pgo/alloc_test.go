package pgo

import (
	"runtime"
	"testing"

	"csspgo/internal/workloads"
)

// buildAllocCeilings are what one profiled, stale-matching pgo.Build of the
// program may allocate. Provenance: measured by this test at the commit
// that introduced it (go1.24, linux/amd64; the minimum of three builds, which
// repeats to the allocation), plus about 15 %:
//
//	hhvm   6 808 allocations, 1 117 KB  (at the parent commit: 12 466, 1 708 KB)
//	haas  10 770 allocations, 1 823 KB  (at the parent commit: 21 792, 3 121 KB)
//
// A build that goes over has started copying or growing something again on
// the path irgen → probe → opt → codegen; `go test -run '^$' -bench Build
// -benchmem .` at the repository root says how much, a -memprofile of it
// says where. Raise a ceiling only for a change that means to allocate more.
var buildAllocCeilings = []struct {
	program       string
	allocs, bytes uint64
}{
	{"hhvm", 7_800, 1_285 << 10},
	{"haas", 12_400, 2_100 << 10},
}

// TestBuildAllocCeiling is the allocation gate on the compile path: one
// pgo.Build of hhvm and of haas from their FullCS profile, as the
// benchmark's stale-rebuild workload configures it (UsePreInlineDecisions,
// StaleMatching), stays under a committed ceiling of allocations and of
// allocated bytes.
func TestBuildAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, ceiling := range buildAllocCeilings {
		name := ceiling.program
		w, err := workloads.Load(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, prof, err := Pipeline(w.Files, FullCS, w.Train)
		if err != nil {
			t.Fatal(err)
		}
		cfg := BuildConfig{Probes: true, Profile: prof, UsePreInlineDecisions: true, StaleMatching: true}
		allocs, bytes := ^uint64(0), ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Build(w.Files, cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			allocs = min(allocs, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s: %d allocations, %d KB", name, allocs, bytes>>10)
		if allocs > ceiling.allocs || bytes > ceiling.bytes {
			t.Errorf("%s: one build allocates %d times, %d KB; the ceiling is %d, %d KB",
				name, allocs, bytes>>10, ceiling.allocs, ceiling.bytes>>10)
		}
	}
}
