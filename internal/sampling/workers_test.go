package sampling

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
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

// ------------------------------------------------ the pending-context table

// pendingKey renders a raw context for the tests' reference maps.
func pendingKey(callers []uint64, leaf *machine.Func) string {
	return fmt.Sprint(leaf.ID, callers)
}

// pendingCounts is what a pending table holds, by rendered context: the
// lookups and the occurrences of each range.
func pendingCounts(t *pendingTable) map[string]map[rangeKey]uint64 {
	out := map[string]map[rangeKey]uint64{}
	for _, pc := range t.ctxs {
		m := map[rangeKey]uint64{{-1, -1}: uint64(pc.lookups)}
		for _, rc := range pc.few[:pc.nFew] {
			m[rc.rangeKey] += rc.occ
		}
		for rk, occ := range pc.more {
			m[rk] += occ
		}
		out[pendingKey(pc.callers, pc.leaf)] = m
	}
	return out
}

// TestPendingTableFindsByContent holds the workers' pending-context table to
// what a map keyed by each context's rendering would do: distinct contexts
// get distinct entries whatever their words look like, an entry keeps its
// index while the table grows, per-worker tables merged the way Finish
// merges them equal one table fed everything, and a context covering more
// ranges than it counts in place loses none of them.
func TestPendingTableFindsByContent(t *testing.T) {
	f, g := &machine.Func{ID: 0, Name: "f"}, &machine.Func{ID: 1, Name: "g"}
	leaves := []*machine.Func{f, g, {ID: 2, Name: "h"}}

	t.Run("aliases", func(t *testing.T) {
		cases := []struct {
			callers []uint64
			leaf    *machine.Func
		}{
			{[]uint64{0x61, 0x62}, f},
			{[]uint64{0x6261}, f},
			{[]uint64{1, 2}, f},
			{[]uint64{2, 1}, f},
			{[]uint64{1}, f},
			{nil, f},
			{[]uint64{1, 2}, g},
			{nil, g},
		}
		var tab pendingTable
		seen := map[int32]int{}
		for i, c := range cases {
			idx := tab.index(c.callers, c.leaf)
			if prev, dup := seen[idx]; dup {
				t.Fatalf("%v under %s and %v under %s share entry %d",
					cases[prev].callers, cases[prev].leaf.Name, c.callers, c.leaf.Name, idx)
			}
			seen[idx] = i
		}
		for i, c := range cases {
			if idx := tab.index(c.callers, c.leaf); seen[idx] != i {
				t.Fatalf("%v under %s: found again at entry %d, which belongs to case %d", c.callers, c.leaf.Name, idx, seen[idx])
			}
		}
		// Every hash equal: only the comparison tells the contexts apart.
		for _, pc := range tab.ctxs {
			pc.hash = 7
		}
		tab.slots = nil
		tab.reserve()
		for i, c := range cases {
			if s := tab.find(7, c.callers, c.leaf); *s == 0 || seen[*s-1] != i {
				t.Fatalf("%v under %s, all hashes equal: found entry %d, want case %d's", c.callers, c.leaf.Name, *s-1, i)
			}
		}
	})

	// Contexts over a small address alphabet share prefixes and suffixes.
	rng := rand.New(rand.NewSource(1))
	randomContext := func() ([]uint64, *machine.Func) {
		callers := make([]uint64, rng.Intn(7))
		for i := range callers {
			callers[i] = 0x1000 + uint64(rng.Intn(8))*4
		}
		return callers, leaves[rng.Intn(len(leaves))]
	}

	t.Run("indices", func(t *testing.T) {
		var tab pendingTable
		ref := map[string]int32{}
		growths, size := 0, 0
		for len(ref) < 1500 {
			callers, leaf := randomContext()
			idx := tab.index(callers, leaf)
			k := pendingKey(callers, leaf)
			want, ok := ref[k]
			if !ok {
				want = int32(len(ref))
				ref[k] = want
			}
			if idx != want {
				t.Fatalf("%s: entry %d, want %d", k, idx, want)
			}
			if len(tab.slots) != size {
				growths, size = growths+1, len(tab.slots)
			}
			if 2*len(tab.ctxs) > len(tab.slots) || len(tab.slots)&(len(tab.slots)-1) != 0 {
				t.Fatalf("%d contexts in %d slots: more than half full, or not a power of two", len(tab.ctxs), len(tab.slots))
			}
		}
		if growths < 4 {
			t.Fatalf("the table grew %d times; the test means to cross several growths", growths)
		}
		for i, pc := range tab.ctxs {
			if k := pendingKey(pc.callers, pc.leaf); ref[k] != int32(i) {
				t.Fatalf("entry %d holds %s, which the reference has at %d", i, k, ref[k])
			}
		}
	})

	t.Run("merge", func(t *testing.T) {
		var whole pendingTable
		workers := make([]pendingTable, 3)
		for range 4000 {
			callers, leaf := randomContext()
			rk := rangeKey{int32(rng.Intn(12)), int32(12 + rng.Intn(4))}
			occ, w := uint64(1+rng.Intn(5)), &workers[rng.Intn(len(workers))]
			for _, tab := range []*pendingTable{&whole, w} {
				pc := tab.ctxs[tab.index(callers, leaf)]
				pc.lookups += int(occ)
				pc.count(rk, occ)
			}
		}
		want := pendingCounts(&whole)
		for _, w := range workers[1:] {
			workers[0].merge(&w)
		}
		if got := pendingCounts(&workers[0]); !reflect.DeepEqual(got, want) {
			t.Fatalf("merged tables hold %d contexts, one table fed everything %d; the counts differ", len(got), len(want))
		}
		for _, pc := range workers[0].ctxs {
			if i := workers[0].index(pc.callers, pc.leaf); workers[0].ctxs[i] != pc {
				t.Fatalf("%s: found at entry %d after the merge, which holds another context", pendingKey(pc.callers, pc.leaf), i)
			}
		}
	})

	t.Run("spill", func(t *testing.T) {
		var tab pendingTable
		pc := tab.ctxs[tab.index([]uint64{7}, f)]
		ref := map[rangeKey]uint64{}
		for i := range 300 {
			rk := rangeKey{int32(rng.Intn(5 * fewRanges)), int32(i % 3)}
			occ := uint64(1 + rng.Intn(9))
			pc.count(rk, occ)
			ref[rk] += occ
		}
		if pc.more == nil {
			t.Fatalf("%d distinct ranges never spilled past the %d counted in place", len(ref), fewRanges)
		}
		got := pendingCounts(&tab)[pendingKey([]uint64{7}, f)]
		delete(got, rangeKey{-1, -1})
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("range counts differ from a map's:\ngot  %v\nwant %v", got, ref)
		}
	})
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
