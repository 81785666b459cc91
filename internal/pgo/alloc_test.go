package pgo

import (
	"runtime"
	"testing"

	"csspgo/internal/introspect"
	"csspgo/internal/obs"
	"csspgo/internal/profdata"
	"csspgo/internal/sampling"
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
// Re-based when function profiles kept their counts as sorted records
// instead of maps:
//
//	hhvm   4 719 allocations,   724 KB
//	haas   7 848 allocations, 1 198 KB
//
// A build that goes over has started copying or growing something again on
// the path irgen → probe → opt → codegen; `go test -run '^$' -bench Build
// -benchmem .` at the repository root says how much, a -memprofile of it
// says where. Raise a ceiling only for a change that means to allocate more.
var buildAllocCeilings = []struct {
	program       string
	allocs, bytes uint64
}{
	{"hhvm", 5_430, 835 << 10},
	{"haas", 9_030, 1_380 << 10},
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
// Allocations re-based when the generator's pending contexts were found by
// content and a fresh sample chunk carved its slots' arrays from slabs,
// which brought the two modes' allocation counts within 0.3 % of each
// other (a run after two GCs have emptied the pools in parentheses):
//
//	hhvm   8 239 allocations, 1 423 KB  (8 263, 1 503 KB)
//	haas  14 949 allocations, 2 543 KB  (14 948, 2 543 KB)
//
// Bytes re-based when CollectProfileFor's training run became untimed and
// stopped allocating the i-cache, predictor and BTB tables (three runs on
// each tree; allocations moved by under 0.2 %, so their ceilings stand):
//
//	hhvm   8 233 allocations, 1 416 KB  (at its parent:  8 237, 1 419 KB)
//	haas  14 925 allocations, 2 484–2 492 KB  (at its parent: 14 931–14 947, 2 495–2 504 KB)
//
// Re-based when function profiles kept their counts as sorted records
// instead of maps (three runs; a run after two GCs in parentheses, which
// the ceilings clear too):
//
//	hhvm   7 975 allocations, 1 390 KB  (7 999, 1 474 KB)
//	haas  13 832–13 851 allocations, 2 355–2 410 KB  (13 849, 2 409 KB)
//
// A pipeline that goes over has started lowering, cloning or growing
// something again; `go test -run '^$' -bench EndToEndPipeline -benchmem .`
// at the repository root says how much, a -memprofile of it says where.
// Raise a ceiling only for a change that means to allocate more.
var pipelineAllocCeilings = []struct {
	program       string
	allocs, bytes uint64
}{
	{"hhvm", 9_200, 1_600 << 10},
	{"haas", 15_930, 2_780 << 10},
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
// haas's re-based when function profiles kept their counts as sorted
// records instead of maps (hhvm's did not move):
//
//	haas  592 allocations, 86 KB
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
	{"haas", 681, 99 << 10},
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

// generateAllocCeilings are what one sampling.GenerateCSSPGO (one worker)
// of the program's materialized training samples at period 199 — the kind
// of input the benchmark's profgen-bound workload generates from — may
// allocate. Provenance: measured by this test (go1.24, linux/amd64; the
// minimum of three runs), plus about 15 % over the higher of two modes. A
// run that finds the dispatcher's grouper in its pool reads the first
// column; one whose pools two GCs have just emptied re-makes the grouper's
// tables and reads the second. At the commit that introduced it, where the
// pending contexts were found by content and counted their first ranges in
// place:
//
//	hhvm    480 allocations,  43 KB;    495,  67 KB  (at its parent:   539,  47 KB)
//	haas  3 342 allocations, 377 KB;  3 356, 397 KB  (at its parent: 4 124, 424 KB)
//
// Re-based when function profiles kept their counts as sorted records
// instead of maps:
//
//	hhvm    392 allocations,  32 KB;    406,  56 KB
//	haas  2 653 allocations, 281 KB;  2 667, 302 KB
//
// A generation that goes over has started rendering keys or growing
// per-context tables again; `go test -run '^$' -bench
// ParallelProfileGeneration -benchmem .` at the repository root says how
// much, a -memprofile of it says where. Raise a ceiling only for a change
// that means to allocate more.
var generateAllocCeilings = []struct {
	program       string
	allocs, bytes uint64
}{
	{"hhvm", 470, 65 << 10},
	{"haas", 3_070, 348 << 10},
}

// TestGenerateAllocCeiling is the allocation gate on profile generation:
// one GenerateCSSPGO of hhvm's and haas's period-199 training samples
// stays under a committed ceiling of allocations and of allocated bytes.
func TestGenerateAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, ceiling := range generateAllocCeilings {
		name := ceiling.program
		w, err := workloads.Load(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Build(w.Files, BuildConfig{Probes: true})
		if err != nil {
			t.Fatal(err)
		}
		pc := DefaultProfileConfig()
		pc.Period = 199
		samples, _, err := CollectSamples(res.Bin, w.Train, pc)
		if err != nil {
			t.Fatal(err)
		}
		opts := sampling.DefaultCSSPGOOptions()
		opts.Workers = 1
		allocs, bytes := fewestAllocs(nil, func() { sampling.GenerateCSSPGO(res.Bin, samples, opts) })
		t.Logf("%s: %d samples; %d allocations, %d KB", name, len(samples), allocs, bytes>>10)
		if allocs > ceiling.allocs || bytes > ceiling.bytes {
			t.Errorf("%s: one generation allocates %d times, %d KB; the ceiling is %d, %d KB",
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

// serveRoundAllocCeilings are what the serving daemon's refresh and swap
// and the fleet aggregator's decode of haas's refresh profile may allocate:
// one warm refresh (a refresh after the first: the metered training run,
// profile generation, trimming, pre-inlining and the profile diff against
// the previous generation), one introspect.Server.SetProfile after a first
// one (text encoding, folded export, run report), and one
// profdata.DecodeLenient of the 19.5 KB of text it serves. Provenance:
// measured by this test (go1.24, linux/amd64; the minimum of three runs,
// which repeats to the allocation), plus about 15 %. At the commit that introduced it, where the text codec appended
// into one buffer and split lines and fields over one copy of the input,
// and the folded export rendered each key once:
//
//	swap     119 allocations, 101 KB  (at its parent: 6 274, 284 KB)
//	decode 1 592 allocations, 172 KB  (at its parent: 3 631, 276 KB)
//
// Re-based, but for the swap's bytes, which moved by 1 KB, when function
// profiles kept their counts as sorted records instead of maps, the
// encoders lost their sort scratch and the decoder its per-record maps:
//
//	swap     112 allocations, 100 KB
//	decode   907 allocations, 102 KB
//
// The refresh row came in when the refresher started decoding its training
// binary and extracting its sizes once, and ParseContext stopped splitting
// the key (the decode row re-based with it). A refresh falls into two
// modes: one that finds the sample chunks and the grouper in their pools,
// and one whose pools two GCs have just emptied (in parentheses). The
// refresh ceiling is about 8 % over the upper mode, which a refresh that
// decodes its binary again (about 98 KB more in either mode) goes over:
//
//	refresh 2 696 allocations, 364 KB  (2 725, 420 KB)  (at its parent: 2 808, 462 KB)
//	decode    742 allocations,  92 KB
//
// A refresh that goes over has started decoding or sizing its binary per
// call again; a swap or decode that goes over has started formatting
// through fmt, copying the encoding or rendering keys per entry again; a
// -memprofile of this test, focused on the refresh closure, SetProfile or
// DecodeLenient, says where. Raise a ceiling only for a change that means
// to allocate more.
var serveRoundAllocCeilings = struct {
	refreshAllocs, refreshBytes, swapAllocs, swapBytes, decodeAllocs, decodeBytes uint64
}{2_950, 455 << 10, 129, 116 << 10, 855, 106 << 10}

// TestServeRoundAllocCeiling is the allocation gate on the serve/fleet
// path: one warm refresh of haas, one swap of its refresh profile and one
// lenient decode of the bytes it serves stay under a committed ceiling of
// allocations and of allocated bytes.
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
		if _, _, err := refresh(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("refresh: %d allocations, %d KB", allocs, bytes>>10)
	if allocs > c.refreshAllocs || bytes > c.refreshBytes {
		t.Errorf("one warm refresh allocates %d times, %d KB; the ceiling is %d, %d KB", allocs, bytes>>10, c.refreshAllocs, c.refreshBytes>>10)
	}
	allocs, bytes = fewestAllocs(nil, func() {
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
