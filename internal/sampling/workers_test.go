package sampling

import (
	"bytes"
	"testing"

	"csspgo/internal/machine"
	"csspgo/internal/profdata"
	"csspgo/internal/sim"
)

func TestValidateWorkers(t *testing.T) {
	cases := []struct {
		n  int
		ok bool
	}{
		{-100, false}, {-1, false}, {0, true}, {1, true}, {64, true},
	}
	for _, tc := range cases {
		err := ValidateWorkers(tc.n)
		if tc.ok && err != nil {
			t.Fatalf("ValidateWorkers(%d): unexpected error %v", tc.n, err)
		}
		if !tc.ok && err == nil {
			t.Fatalf("ValidateWorkers(%d): negative count must be rejected", tc.n)
		}
	}
}

// ------------------------------------------------- satellite: Dropped stat

func TestUnwindStatsCountAcceptedOnly(t *testing.T) {
	bin := build(t, contextSrc, true)
	samples := profileRun(t, bin, sim.DefaultPMUConfig(16), 20, 200)
	if len(samples) == 0 {
		t.Skip("no samples at this scale")
	}
	// Interleave rejects among real samples: empty, LBR-less, stack-less.
	mixed := []sim.Sample{{}, samples[0], {Stack: []uint64{0x1000}}}
	mixed = append(mixed, samples[1:]...)
	mixed = append(mixed, sim.Sample{LBR: samples[0].LBR})

	u := newUnwinder(bin, nil)
	for _, s := range mixed {
		u.unwindOne(s)
	}
	if u.Stats.Samples != len(samples) {
		t.Fatalf("Samples must count accepted only: got %d, want %d", u.Stats.Samples, len(samples))
	}
	if u.Stats.Dropped != 3 {
		t.Fatalf("Dropped must count rejects: got %d, want 3", u.Stats.Dropped)
	}
}

// ------------------------------------- satellite: truncated-stack contexts

// TestTruncatedStackIsSticky is the regression test for the partial-context
// bug: when the stack sample is shallower than the LBR history, a return
// record later in the (reverse-order) walk re-grows the caller stack, and the
// old unwinder emitted those partially-recovered contexts as if they were
// complete. Truncation must be sticky for the remainder of the sample and
// visible on every affected range.
func TestTruncatedStackIsSticky(t *testing.T) {
	bin := build(t, contextSrc, true)
	samples := profileRun(t, bin, sim.DefaultPMUConfig(16), 30, 300)

	u := newUnwinder(bin, nil)
	sawTruncated := false
	for _, s := range samples {
		if len(s.Stack) < 2 || len(s.LBR) < 8 {
			continue
		}
		// Cut the stack to the leaf frame only: the first undone call pops
		// from an empty caller stack and every context from there back in
		// time is missing its outer frames.
		s.Stack = s.Stack[:1]
		out := u.unwindOne(s)
		seen := false
		for _, cr := range out {
			if cr.Truncated {
				seen = true
				sawTruncated = true
			} else if seen {
				t.Fatalf("truncation not sticky: complete range after truncated one")
			}
		}
	}
	if !sawTruncated {
		t.Skip("no sample deep enough to exhaust a leaf-only stack")
	}
	if u.Stats.TruncatedRanges == 0 {
		t.Fatal("TruncatedRanges stat not bumped")
	}
}

// Truncated ranges must fall back to the context-insensitive base profile
// rather than minting false shallow contexts.
func TestTruncatedSamplesDoNotMintContexts(t *testing.T) {
	bin := build(t, contextSrc, true)
	samples := profileRun(t, bin, sim.DefaultPMUConfig(16), 30, 300)
	var cut []sim.Sample
	for _, s := range samples {
		if len(s.Stack) >= 2 && len(s.LBR) >= 8 {
			s.Stack = s.Stack[:1]
			cut = append(cut, s)
		}
	}
	if len(cut) == 0 {
		t.Skip("no deep samples")
	}
	prof, stats := GenerateCSSPGO(bin, cut, CSSPGOOptions{Workers: 1})
	if stats.TruncatedRanges == 0 {
		t.Skip("no truncation triggered at this scale")
	}
	// scalarOp's counts must not appear under a false [scalarOp]-rooted
	// shallow context claiming to be the complete calling context; with
	// leaf-only stacks the unwinder cannot know the callers, so the counts
	// belong to base profiles. Contexts that do exist must come from the
	// prefix of the walk where the caller stack was still genuine.
	for _, key := range prof.SortedContextKeys() {
		cp := prof.Contexts[key]
		if cp.TotalSamples == 0 {
			continue
		}
		if cp.Context.Depth() == 0 {
			t.Fatalf("empty context minted: %q", key)
		}
	}
	if len(prof.Funcs) == 0 {
		t.Fatal("truncated counts lost entirely: no base profiles")
	}
}

// --------------------------------------- satellite: negative line offsets

func TestLineLocClampsNegativeOffset(t *testing.T) {
	fn := &machine.Func{Name: "f", StartLine: 40}
	// Drifted or corrupt debug info: a frame line above the function decl.
	loc := lineLoc(machine.Frame{Func: "f", Line: 7, Disc: 2}, fn)
	if loc.ID != 0 {
		t.Fatalf("negative offset must clamp to 0, got %d", loc.ID)
	}
	if loc.Disc != 2 {
		t.Fatalf("discriminator lost in clamp: %+v", loc)
	}
	loc = lineLoc(machine.Frame{Func: "f", Line: 43}, fn)
	if loc.ID != 3 {
		t.Fatalf("normal offset broken: got %d, want 3", loc.ID)
	}
}

// -------------------------------------------- satellite: cache-key aliasing

// cacheKey renders one (callers, leaf, kind) triple as appendCacheKey does,
// as a string.
func cacheKey(callers []uint64, leaf string, kind profdata.Kind) string {
	return string(appendCacheKey(nil, callers, leaf, kind))
}

// TestCacheKeyInjective feeds pairs that collided under the old delimiter-free
// encoding (address bytes ran straight into the leaf name) and requires
// distinct keys for distinct triples.
func TestCacheKeyInjective(t *testing.T) {
	type triple struct {
		callers []uint64
		leaf    string
		kind    profdata.Kind
	}
	cases := []triple{
		{nil, "", profdata.ProbeBased},
		{nil, "a", profdata.ProbeBased},
		{[]uint64{'a'}, "", profdata.ProbeBased},
		{[]uint64{'a'}, "", profdata.LineBased},
		{nil, "a\x00\x00\x00\x00\x00\x00\x00", profdata.ProbeBased},
		{[]uint64{0x61, 0x62}, "", profdata.ProbeBased},
		{[]uint64{0x61}, "b\x00\x00\x00\x00\x00\x00\x00", profdata.ProbeBased},
		{[]uint64{0x6261}, "", profdata.ProbeBased},
		{[]uint64{1, 2}, "f", profdata.ProbeBased},
		{[]uint64{1}, "f", profdata.ProbeBased},
		{[]uint64{2, 1}, "f", profdata.ProbeBased},
	}
	seen := map[string]triple{}
	for _, c := range cases {
		k := cacheKey(c.callers, c.leaf, c.kind)
		if prev, dup := seen[k]; dup {
			t.Fatalf("cache key collision: %+v vs %+v", prev, c)
		}
		seen[k] = c
	}
}

// --------------------------------- worker-count invariance vs the reference

// TestSerialParallelByteIdentical is the determinism contract: for every
// generator and every worker count (1 = serial), the serialized profile must
// be byte-for-byte the profile the serial per-sample reference produces.
func TestSerialParallelByteIdentical(t *testing.T) {
	for _, src := range []struct {
		name   string
		src    string
		probes bool
	}{
		{"hotcold", hotColdSrc, true},
		{"context", contextSrc, true},
		{"lines", contextSrc, false},
	} {
		t.Run(src.name, func(t *testing.T) {
			bin := build(t, src.src, src.probes)
			samples := profileRun(t, bin, sim.DefaultPMUConfig(16), 40, 400)
			if len(samples) < 8 {
				t.Skipf("only %d samples", len(samples))
			}

			type gen struct {
				name string
				want *profdata.Profile
				run  func(workers int) *profdata.Profile
			}
			gens := []gen{
				{"autofdo", referenceAutoFDO(bin, samples), func(w int) *profdata.Profile {
					return GenerateAutoFDO(bin, samples, FlatOptions{Workers: w})
				}},
			}
			if src.probes {
				opts := DefaultCSSPGOOptions()
				wantCS, _ := referenceCSSPGO(bin, samples, opts)
				gens = append(gens,
					gen{"probe", referenceProbeProfile(bin, samples), func(w int) *profdata.Profile {
						return GenerateProbeProfile(bin, samples, FlatOptions{Workers: w})
					}},
					gen{"cs", wantCS, func(w int) *profdata.Profile {
						opts.Workers = w
						p, _ := GenerateCSSPGO(bin, samples, opts)
						return p
					}},
				)
			}
			for _, g := range gens {
				wantText := profdata.EncodeToString(g.want)
				wantBin := profdata.EncodeBinary(g.want)
				for _, w := range []int{1, 2, 3, 4, 8, 0} {
					got := g.run(w)
					if s := profdata.EncodeToString(got); s != wantText {
						t.Fatalf("%s: workers=%d text differs from the reference\nreference:\n%s\ngot:\n%s",
							g.name, w, wantText, s)
					}
					if b := profdata.EncodeBinary(got); !bytes.Equal(b, wantBin) {
						t.Fatalf("%s: workers=%d binary encoding differs from the reference", g.name, w)
					}
				}
			}
		})
	}
}

// UnwindStats must not depend on the worker count: every pool size reduces
// to the serial reference's totals. The tail-call program exercises the
// context-resolution stats (missing-frame events and recoveries), which are
// replayed per lookup rather than summed per sample.
func TestParallelUnwindStatsMatchSerial(t *testing.T) {
	for _, tc := range []struct {
		name    string
		bin     *machine.Prog
		runs    int
		arg     int64
		opts    CSSPGOOptions
		workers []int
	}{
		{"context", build(t, contextSrc, true), 40, 400, DefaultCSSPGOOptions(), []int{1, 2, 4, 8}},
		{"tailcall", tailCallProgram(t), 30, 120, CSSPGOOptions{TailCallInference: true, MaxContextDepth: 8}, []int{1, 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			samples := profileRun(t, tc.bin, sim.DefaultPMUConfig(16), tc.runs, tc.arg)
			if len(samples) < 8 {
				t.Skipf("only %d samples", len(samples))
			}
			_, serial := referenceCSSPGO(tc.bin, samples, tc.opts)
			t.Logf("reference: %+v", serial)
			for _, w := range tc.workers {
				tc.opts.Workers = w
				_, par := GenerateCSSPGO(tc.bin, samples, tc.opts)
				if par != serial {
					t.Fatalf("workers=%d stats differ:\nreference %+v\ngot       %+v", w, serial, par)
				}
			}
		})
	}
}

// Satellite: repeated runs over identical inputs must serialize identically —
// no map-iteration order may leak into emission.
func TestRepeatedRunsByteIdentical(t *testing.T) {
	bin := build(t, contextSrc, true)
	samples := profileRun(t, bin, sim.DefaultPMUConfig(16), 40, 400)
	opts := DefaultCSSPGOOptions()
	opts.Workers = 4
	var wantText string
	var wantBin []byte
	for i := 0; i < 5; i++ {
		p, _ := GenerateCSSPGO(bin, samples, opts)
		text := profdata.EncodeToString(p)
		bina := profdata.EncodeBinary(p)
		if i == 0 {
			wantText, wantBin = text, bina
			continue
		}
		if text != wantText {
			t.Fatalf("run %d text differs from run 0", i)
		}
		if !bytes.Equal(bina, wantBin) {
			t.Fatalf("run %d binary differs from run 0", i)
		}
	}
}

// MergeShards must fold in shard-index order and tolerate degenerate inputs.
func TestMergeShardsOrder(t *testing.T) {
	if p := profdata.MergeShards(nil); p != nil {
		t.Fatal("empty shard list must merge to nil")
	}
	a := profdata.New(profdata.ProbeBased, false)
	a.FuncProfile("f").AddBody(profdata.LocKey{ID: 1}, 3)
	b := profdata.New(profdata.ProbeBased, false)
	b.FuncProfile("f").AddBody(profdata.LocKey{ID: 1}, 4)
	b.FuncProfile("g").AddBody(profdata.LocKey{ID: 2}, 1)
	m := profdata.MergeShards([]*profdata.Profile{a, b})
	if got := m.FuncProfile("f").BodyAt(profdata.LocKey{ID: 1}); got != 7 {
		t.Fatalf("counts not summed: %d", got)
	}
	if got := m.FuncProfile("g").BodyAt(profdata.LocKey{ID: 2}); got != 1 {
		t.Fatalf("second shard lost: %d", got)
	}
}

// The flat engine's per-worker aggregators (address counters, indirect-call
// histograms), merged at drain, must agree with the serial reference loops.
func TestShardedAggregatorsMatchSerial(t *testing.T) {
	bin := build(t, contextSrc, true)
	samples := profileRun(t, bin, sim.DefaultPMUConfig(16), 40, 400)
	if len(samples) < 8 {
		t.Skipf("only %d samples", len(samples))
	}
	serialIT := icallTargetsSerial(bin, samples)
	serialAC := addrCountsSerial(bin, samples)
	for _, w := range []int{1, 2, 4, 8} {
		st := NewFlatStream(bin, FlatOptions{Workers: w})
		feedSlice(st, samples, 7)
		gotAC, gotIT, total := st.drain()
		if total != len(samples) {
			t.Fatalf("workers=%d: drained %d samples, want %d", w, total, len(samples))
		}
		if len(gotIT) != len(serialIT) {
			t.Fatalf("workers=%d: %d icall sites, want %d", w, len(gotIT), len(serialIT))
		}
		for site, targets := range serialIT {
			for callee, n := range targets {
				if gotIT[site][callee] != n {
					t.Fatalf("workers=%d: site %#x callee %s = %d, want %d",
						w, site, callee, gotIT[site][callee], n)
				}
			}
		}
		for _, fn := range bin.Funcs {
			for a := fn.Start; a < fn.End; a++ {
				if serialAC.Count(a) != gotAC.Count(a) {
					t.Fatalf("workers=%d addr %#x: serial %d != merged %d", w, a, serialAC.Count(a), gotAC.Count(a))
				}
			}
		}
	}
}
