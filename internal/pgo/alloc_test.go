package pgo

import (
	"runtime"
	"testing"

	"csspgo/internal/introspect"
	"csspgo/internal/obs"
	"csspgo/internal/profdata"
	"csspgo/internal/workloads"
)

// buildAllocCeilings are what one profiled, stale-matching pgo.Build of the
// program may allocate. Provenance: measured by this test (go1.24,
// linux/amd64; the minimum of three builds, which repeats to the
// allocation), plus about 15 %. At the commit that introduced it:
//
//	hhvm   6 808 allocations, 1 117 KB  (at its parent: 12 466, 1 708 KB)
//	haas  10 770 allocations, 1 823 KB  (at its parent: 21 792, 3 121 KB)
//
// Re-based when the lookup tables became lazy, section sizes were counted,
// inference got one workspace per program, ICP stopped cloning the profile
// and the instruction structs were packed:
//
//	hhvm   5 804 allocations,   894 KB
//	haas   9 300 allocations, 1 445 KB
//
// Re-based when simplify-cfg stopped regrowing merged chains and
// rebuilding the CFG per merge, cloned return blocks kept room for the
// inliner's return-value move, RemoveUnreachable stopped ordering blocks
// it keeps in place and the call graph lost its call-site lists:
//
//	hhvm   4 889 allocations,   739 KB
//	haas   8 468 allocations, 1 261 KB
//
// A build that goes over has started copying or growing something again on
// the path irgen → probe → opt → codegen; `go test -run '^$' -bench Build
// -benchmem .` at the repository root says how much, a -memprofile of it
// says where. Raise a ceiling only for a change that means to allocate more.
var buildAllocCeilings = []struct {
	program       string
	allocs, bytes uint64
}{
	{"hhvm", 5_620, 850 << 10},
	{"haas", 9_740, 1_450 << 10},
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
		allocs, bytes := fewestAllocs(nil, func() {
			if _, err := Build(w.Files, cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d allocations, %d KB", name, allocs, bytes>>10)
		if allocs > ceiling.allocs || bytes > ceiling.bytes {
			t.Errorf("%s: one build allocates %d times, %d KB; the ceiling is %d, %d KB",
				name, allocs, bytes>>10, ceiling.allocs, ceiling.bytes>>10)
		}
	}
}

// pipelineAllocCeilings are what one FullCS Pipeline of the program may
// allocate: one lowering, the training compile, the profiled training run
// with its profile generation, trimming and pre-inlining, and the
// optimizing compile. Provenance: measured by this test (go1.24,
// linux/amd64; the minimum of three runs, which repeats to the
// allocation), plus about 15 %. At the commit that introduced it, where
// Pipeline lowered once, sample chunks grew with the stream and simplify,
// the inliner and RemoveUnreachable stopped regrowing or rebuilding what
// they already had:
//
//	hhvm   8 296 allocations, 1 421 KB  (at its parent:  9 783, 1 732 KB)
//	haas  15 482 allocations, 2 517 KB  (at its parent: 17 448, 2 939 KB)
//
// Single runs fall into two modes on both trees, the upper one about 10 %
// (hhvm) and 4 % (haas) above the lower; the ceiling clears both.
//
// A pipeline that goes over has started lowering, cloning or growing
// something again; `go test -run '^$' -bench EndToEndPipeline -benchmem .`
// at the repository root says how much, a -memprofile of it says where.
// Raise a ceiling only for a change that means to allocate more.
var pipelineAllocCeilings = []struct {
	program       string
	allocs, bytes uint64
}{
	{"hhvm", 9_540, 1_635 << 10},
	{"haas", 17_800, 2_895 << 10},
}

// TestPipelineAllocCeiling is the allocation gate on the whole FullCS
// pipeline: one Pipeline of hhvm and of haas stays under a committed
// ceiling of allocations and of allocated bytes.
func TestPipelineAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, ceiling := range pipelineAllocCeilings {
		name := ceiling.program
		w, err := workloads.Load(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		allocs, bytes := fewestAllocs(nil, func() {
			if _, _, err := Pipeline(w.Files, FullCS, w.Train); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d allocations, %d KB", name, allocs, bytes>>10)
		if allocs > ceiling.allocs || bytes > ceiling.bytes {
			t.Errorf("%s: one pipeline allocates %d times, %d KB; the ceiling is %d, %d KB",
				name, allocs, bytes>>10, ceiling.allocs, ceiling.bytes>>10)
		}
	}
}

// preInlineAllocCeilings are what one TrimAndPreInline of the program's
// raw FullCS profile may allocate: cold-context trimming, ExtractSizes and
// the pre-inliner. Provenance: measured by this test (go1.24,
// linux/amd64; the minimum of three runs, which repeats to the
// allocation), plus about 15 %. At the commit that introduced it, where
// promotion became a move, parent keys slices of the key and ExtractSizes
// built each chain string once:
//
//	hhvm  229 allocations, 38 KB  (at its parent:  2 878, 105 KB)
//	haas  602 allocations, 87 KB  (at its parent: 12 429, 588 KB)
//
// A run that goes over has started copying a context profile or rendering
// a key again; `go test -run '^$' -bench PreInline -benchmem .` at the
// repository root says how much, a -memprofile of it says where. Raise a
// ceiling only for a change that means to allocate more.
var preInlineAllocCeilings = []struct {
	program       string
	allocs, bytes uint64
}{
	{"hhvm", 263, 45 << 10},
	{"haas", 692, 101 << 10},
}

// TestPreInlineAllocCeiling is the allocation gate on the pre-inliner: one
// TrimAndPreInline of a fresh clone of hhvm's and haas's raw FullCS profile
// stays under a committed ceiling of allocations and of allocated bytes.
func TestPreInlineAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, ceiling := range preInlineAllocCeilings {
		name := ceiling.program
		w, err := workloads.Load(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Build(w.Files, BuildConfig{Probes: true})
		if err != nil {
			t.Fatal(err)
		}
		raw, _, _, err := CollectAndGenerate(res.Bin, FullCS, w.Train, DefaultProfileConfig())
		if err != nil {
			t.Fatal(err)
		}
		var prof *profdata.Profile
		allocs, bytes := fewestAllocs(func() { prof = raw.Clone() }, func() { TrimAndPreInline(prof, res.Bin, 0) })
		t.Logf("%s: %d allocations, %d KB", name, allocs, bytes>>10)
		if allocs > ceiling.allocs || bytes > ceiling.bytes {
			t.Errorf("%s: one TrimAndPreInline allocates %d times, %d KB; the ceiling is %d, %d KB",
				name, allocs, bytes>>10, ceiling.allocs, ceiling.bytes>>10)
		}
	}
}

// fewestAllocs runs run three times, each after setup unless it is nil,
// and returns the fewest allocations and allocated bytes one run made.
func fewestAllocs(setup, run func()) (allocs, bytes uint64) {
	allocs, bytes = ^uint64(0), ^uint64(0)
	for i := 0; i < 3; i++ {
		if setup != nil {
			setup()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, bytes
}

// serveRoundAllocCeilings are what the serving daemon's swap and the fleet
// aggregator's decode of haas's refresh profile may allocate: one
// introspect.Server.SetProfile after a first one (text encoding, folded
// export, run report), and one profdata.DecodeLenient of the 19.5 KB of
// text it serves. Provenance: measured by this test (go1.24, linux/amd64;
// the minimum of three runs, which repeats to the allocation), plus about
// 15 %. At the commit that introduced it, where the text codec appended
// into one buffer and split lines and fields over one copy of the input,
// and the folded export rendered each key once:
//
//	swap     119 allocations, 101 KB  (at its parent: 6 274, 284 KB)
//	decode 1 592 allocations, 172 KB  (at its parent: 3 631, 276 KB)
//
// A swap or decode that goes over has started formatting through fmt,
// copying the encoding or rendering keys per entry again; a -memprofile
// of this test, focused on SetProfile or DecodeLenient, says where. Raise
// a ceiling only for a change that means to allocate more.
var serveRoundAllocCeilings = struct {
	swapAllocs, swapBytes, decodeAllocs, decodeBytes uint64
}{137, 116 << 10, 1_831, 198 << 10}

// TestServeRoundAllocCeiling is the allocation gate on the serve/fleet
// path: one swap of haas's refresh profile and one lenient decode of the
// bytes it serves stay under a committed ceiling of allocations and of
// allocated bytes.
func TestServeRoundAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	w, err := workloads.Load("haas", 1)
	if err != nil {
		t.Fatal(err)
	}
	refresh, err := NewRefresher(w.Files, w.Train, DefaultProfileConfig(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	prof, rep, err := refresh()
	if err != nil {
		t.Fatal(err)
	}
	srv := introspect.NewServer("haas", obs.NewRegistry())
	if err := srv.SetProfile(prof, rep); err != nil {
		t.Fatal(err)
	}
	c := serveRoundAllocCeilings
	allocs, bytes := fewestAllocs(nil, func() {
		if err := srv.SetProfile(prof, rep); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("swap: %d allocations, %d KB", allocs, bytes>>10)
	if allocs > c.swapAllocs || bytes > c.swapBytes {
		t.Errorf("one SetProfile allocates %d times, %d KB; the ceiling is %d, %d KB", allocs, bytes>>10, c.swapAllocs, c.swapBytes>>10)
	}
	text := srv.Current().Profile
	allocs, bytes = fewestAllocs(nil, func() {
		if _, stats, err := profdata.DecodeLenient(text); err != nil || stats != (profdata.ReadStats{}) {
			t.Fatalf("decode: %+v, %v", stats, err)
		}
	})
	t.Logf("decode: %d allocations, %d KB", allocs, bytes>>10)
	if allocs > c.decodeAllocs || bytes > c.decodeBytes {
		t.Errorf("one DecodeLenient allocates %d times, %d KB; the ceiling is %d, %d KB", allocs, bytes>>10, c.decodeAllocs, c.decodeBytes>>10)
	}
}
