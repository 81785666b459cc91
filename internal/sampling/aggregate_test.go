package sampling

import (
	"bytes"
	"reflect"
	"testing"

	"csspgo/internal/codegen"
	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/machine"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
	"csspgo/internal/sim"
	"csspgo/internal/source"
)

// Duplicate-heavy streams: a hot loop hands the collector the same (LBR,
// stack) again and again, so whatever the engine does with identical
// samples — within a chunk, across a chunk boundary, across workers — must
// leave the profile bytes, the UnwindStats and the tail-call graph exactly
// what the per-sample reference produces from the same stream.

// mixedSrc has everything a sample can carry in one program: calling
// contexts that matter (scalarOp), an indirect call with two targets, and a
// function that tail-calls the same callee from two different sites, so
// which observation of the edge middle→leaf comes first in the stream
// decides the site address the tail-call graph keeps.
const mixedSrc = `
func main(n, unused) {
	var h = &even;
	var o = &odd;
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		var f = h;
		if (i % 2 == 1) { f = o; }
		s = s + icall(f, i);
		s = s + middle(i);
		s = s + addVectorHead(i);
		s = s + subVectorHead(i);
	}
	return s;
}
func even(x) { return x * 2; }
func odd(x) { return x * 3; }
func middle(x) {
	if (x % 3 == 0) { return leaf(x + 1); }
	return leaf(x + 2);
}
func leaf(y) {
	var s = 0;
	for (var j = 0; j < 4; j = j + 1) { s = s + y; }
	return s;
}
func addVectorHead(x) { return scalarOp(x, 1); }
func subVectorHead(x) { return scalarOp(x, 2); }
func scalarOp(x, op) {
	if (op == 1) { return scalarAdd(x); }
	return scalarSub(x);
}
func scalarAdd(x) { return x + 10; }
func scalarSub(x) { return x - 10; }
`

// buildMixed lowers mixedSrc with both of middle's calls to leaf turned
// into tail calls.
func buildMixed(t testing.TB, withProbes bool) *machine.Prog {
	t.Helper()
	f, err := source.Parse("m", mixedSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	if withProbes {
		probe.InsertProgram(p)
	}
	for _, b := range p.Funcs["middle"].Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpCall && b.Instrs[i].Callee == "leaf" {
				b.Instrs[i].TailCall = true
			}
		}
	}
	bin, err := codegen.Lower(p, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// cloneSample gives a duplicate its own backing arrays, so that two equal
// samples share content and nothing else.
func cloneSample(s sim.Sample) sim.Sample {
	return sim.Sample{
		LBR:   append([]sim.BranchRec(nil), s.LBR...),
		Stack: append([]uint64(nil), s.Stack...),
	}
}

// duplicate builds a stream of len(base)×repeat samples: position i holds
// repeat consecutive copies of base[i*stride mod len(base)]. stride 1 keeps
// the order, a stride sharing a factor with len(base) revisits a subset (so
// copies of one sample also sit far apart), repeat > chunk size makes
// identical samples straddle chunk boundaries.
func duplicate(base []sim.Sample, repeat, stride int) []sim.Sample {
	out := make([]sim.Sample, 0, len(base)*repeat)
	for i := range base {
		for r := 0; r < repeat; r++ {
			out = append(out, cloneSample(base[(i*stride)%len(base)]))
		}
	}
	return out
}

// tailSites returns the distinct tail-call sites from→to in one LBR.
func tailSites(bin *machine.Prog, lbr []sim.BranchRec, from, to string) map[uint64]bool {
	out := map[uint64]bool{}
	for _, br := range lbr {
		in := bin.InstrAt(br.From)
		if in == nil || in.Kind != machine.KTailCall {
			continue
		}
		if f, c := bin.FuncAt(br.From), bin.FuncAt(br.To); f != nil && c != nil && f.Name == from && c.Name == to {
			out[br.From] = true
		}
	}
	return out
}

// engineTailEdges is the tail-call graph the engine's workers hold after
// Finish: per edge, the site of the observation earliest in the stream.
func engineTailEdges(s *CSSPGOStream) map[edgeKey]uint64 {
	first := map[edgeKey]tailObs{}
	for _, w := range s.workers {
		for k, o := range w.tails {
			if cur, ok := first[k]; !ok || o.pos.before(cur.pos) {
				first[k] = o
			}
		}
	}
	out := map[edgeKey]uint64{}
	for k, o := range first {
		out[k] = o.site
	}
	return out
}

func referenceTailEdges(bin *machine.Prog, samples []sim.Sample) map[edgeKey]uint64 {
	out := map[edgeKey]uint64{}
	for from, m := range BuildTailCallGraph(bin, samples).edges {
		for to, e := range m {
			out[edgeKey{from, to}] = e.SiteAddr
		}
	}
	return out
}

func TestAggregationMatchesReference(t *testing.T) {
	probed := buildMixed(t, true)
	plain := buildMixed(t, false)
	base := profileRun(t, probed, sim.DefaultPMUConfig(16), 12, 90)
	basePlain := profileRun(t, plain, sim.DefaultPMUConfig(16), 12, 90)
	if len(base) < 40 || len(basePlain) < 40 {
		t.Fatalf("only %d / %d samples", len(base), len(basePlain))
	}

	// One sample whose only middle→leaf tail call is at the first site, one
	// whose only one is at the second.
	var siteA, siteB uint64
	var onlyA, onlyB *sim.Sample
	for i := range base {
		sites := tailSites(probed, base[i].LBR, "middle", "leaf")
		if len(sites) != 1 {
			continue
		}
		for site := range sites {
			switch {
			case onlyA == nil:
				siteA, onlyA = site, &base[i]
			case onlyB == nil && site != siteA:
				siteB, onlyB = site, &base[i]
			}
		}
	}
	if onlyA == nil || onlyB == nil {
		t.Fatal("no pair of samples observing middle→leaf at different sites")
	}
	noTail := func() []sim.Sample {
		var out []sim.Sample
		for _, s := range base {
			if len(tailSites(probed, s.LBR, "middle", "leaf")) == 0 {
				out = append(out, s)
			}
		}
		return out
	}()
	if len(noTail) < 4 {
		t.Fatalf("only %d samples without the tail edge", len(noTail))
	}
	// edgeOrder: filler without the edge, then the two observations in the
	// given order, each followed by copies of the other, and copies of the
	// first one again at the very end — so its group of duplicates reaches
	// further back than the other's and further forward too, and with chunk
	// size 3 the first observation sits in an earlier chunk than most copies
	// of either. Only the earliest position of each group may decide.
	edgeOrder := func(first, second *sim.Sample) []sim.Sample {
		out := duplicate(noTail[:4], 2, 1)
		out = append(out, cloneSample(*first))
		for i := 0; i < 5; i++ {
			out = append(out, cloneSample(*second))
		}
		for i := 0; i < 5; i++ {
			out = append(out, cloneSample(*first), cloneSample(*second))
		}
		out = append(out, duplicate(noTail[:4], 3, 1)...)
		return append(out, cloneSample(*first), cloneSample(*first))
	}

	// Dropped samples (identical among themselves too) and leaf-only stacks
	// whose ranges come out truncated, mixed among real ones.
	withRejects := func(src []sim.Sample) []sim.Sample {
		var out []sim.Sample
		for i, s := range src {
			out = append(out, s)
			switch i % 4 {
			case 0:
				out = append(out, sim.Sample{}, sim.Sample{})
			case 1:
				out = append(out, sim.Sample{Stack: []uint64{s.Stack[0]}}, sim.Sample{Stack: []uint64{s.Stack[0]}})
			case 2:
				out = append(out, sim.Sample{LBR: append([]sim.BranchRec(nil), s.LBR...)}, sim.Sample{LBR: append([]sim.BranchRec(nil), s.LBR...)})
			}
		}
		return out
	}
	truncated := func(src []sim.Sample) []sim.Sample {
		var out []sim.Sample
		for _, s := range src {
			if len(s.Stack) >= 2 && len(s.LBR) >= 8 {
				cut := cloneSample(s)
				cut.Stack = cut.Stack[:1]
				out = append(out, cut, cloneSample(s), cloneSample(cut))
			}
		}
		return out
	}

	// Samples taken without PEBS, whose stacks lag the LBR by a frame.
	skidCfg := sim.DefaultPMUConfig(16)
	skidCfg.PEBS = false
	skidded := profileRun(t, probed, skidCfg, 6, 90)
	skiddedPlain := profileRun(t, plain, skidCfg, 6, 90)
	// The same LBR under two different stacks, alternating: the copy with
	// its outermost frame gone is another context, not another occurrence.
	twoStacks := func(src []sim.Sample) []sim.Sample {
		var out []sim.Sample
		for _, s := range src {
			if len(s.Stack) >= 3 {
				shallow := cloneSample(s)
				shallow.Stack = shallow.Stack[:len(shallow.Stack)-1]
				out = append(out, cloneSample(s), shallow, cloneSample(s), cloneSample(shallow))
			}
		}
		return out
	}

	type stream struct {
		name    string
		samples func(base, skid []sim.Sample) []sim.Sample
		csOnly  bool // built from samples of the probed binary
	}
	streams := []stream{
		{"repeat4", func(b, _ []sim.Sample) []sim.Sample { return duplicate(b, 4, 1) }, false},
		// At most 3 groups in 3 live chunks' worth of samples: with 3 or
		// more workers the whole slice goes out in shares of one group.
		{"hot3", func(b, _ []sim.Sample) []sim.Sample { return duplicate(b[:3], sim.DefaultChunkSize, 1) }, false},
		{"interleave", func(b, _ []sim.Sample) []sim.Sample { return duplicate(b[:30], 2, 7) }, false},
		{"revisit", func(b, _ []sim.Sample) []sim.Sample { return duplicate(b[:36], 3, 6) }, false},
		{"rejects", func(b, _ []sim.Sample) []sim.Sample { return withRejects(duplicate(b[:40], 2, 3)) }, false},
		{"truncated", func(b, _ []sim.Sample) []sim.Sample { return truncated(b) }, false},
		{"twoStacks", func(b, _ []sim.Sample) []sim.Sample { return twoStacks(b[:60]) }, false},
		{"skid", func(_, skid []sim.Sample) []sim.Sample { return duplicate(skid, 3, 1) }, false},
		{"edgeAB", func(_, _ []sim.Sample) []sim.Sample { return edgeOrder(onlyA, onlyB) }, true},
		{"edgeBA", func(_, _ []sim.Sample) []sim.Sample { return edgeOrder(onlyB, onlyA) }, true},
	}

	sawTruncated, sawDropped, sawSkid := false, false, false
	keptSite := map[string]uint64{}
	for _, sd := range streams {
		t.Run(sd.name, func(t *testing.T) {
			samples := sd.samples(base, skidded)
			opts := CSSPGOOptions{TailCallInference: true, MaxContextDepth: 8}
			wantCS, wantStats := referenceCSSPGO(probed, samples, opts)
			wantCSBin := profdata.EncodeBinary(wantCS)
			wantEdges := referenceTailEdges(probed, samples)
			wantProbe := profdata.EncodeBinary(referenceProbeProfile(probed, samples))
			sawTruncated = sawTruncated || wantStats.TruncatedRanges > 0
			sawDropped = sawDropped || wantStats.Dropped > 0
			sawSkid = sawSkid || wantStats.SkidAdjusted > 0
			keptSite[sd.name] = wantEdges[edgeKey{"middle", "leaf"}]

			var lineSamples []sim.Sample
			var wantAuto []byte
			if !sd.csOnly {
				lineSamples = sd.samples(basePlain, skiddedPlain)
				wantAuto = profdata.EncodeBinary(referenceAutoFDO(plain, lineSamples))
			}

			// The whole slice as one chunk, and more workers than distinct
			// samples.
			for _, workers := range []int{1, 2, 4, distinctSamples(samples) + 1} {
				for _, chunk := range []int{1, 3, 4096, len(samples)} {
					opts.Workers, opts.ChunkSize = workers, chunk
					st := NewCSSPGOStream(probed, opts)
					feedSlice(st, samples, chunk)
					got, gotStats := st.Finish()
					if !bytes.Equal(profdata.EncodeBinary(got), wantCSBin) {
						t.Fatalf("cs: workers=%d chunk=%d: profile differs from the reference", workers, chunk)
					}
					if gotStats != wantStats {
						t.Fatalf("cs: workers=%d chunk=%d: stats differ:\nreference %+v\ngot       %+v", workers, chunk, wantStats, gotStats)
					}
					if edges := engineTailEdges(st); !reflect.DeepEqual(edges, wantEdges) {
						t.Fatalf("cs: workers=%d chunk=%d: tail-call graph differs:\nreference %v\ngot       %v", workers, chunk, wantEdges, edges)
					}
					flat := FlatOptions{Workers: workers, ChunkSize: chunk}
					if b := profdata.EncodeBinary(GenerateProbeProfile(probed, samples, flat)); !bytes.Equal(b, wantProbe) {
						t.Fatalf("probe: workers=%d chunk=%d: profile differs from the reference", workers, chunk)
					}
					if wantAuto != nil {
						if b := profdata.EncodeBinary(GenerateAutoFDO(plain, lineSamples, flat)); !bytes.Equal(b, wantAuto) {
							t.Fatalf("autofdo: workers=%d chunk=%d: profile differs from the reference", workers, chunk)
						}
					}
				}
			}
		})
	}
	// The streams must exercise what they are named for.
	if !sawTruncated || !sawDropped || !sawSkid {
		t.Fatalf("streams produced truncated ranges: %v, dropped samples: %v, skid-adjusted stacks: %v; want all three", sawTruncated, sawDropped, sawSkid)
	}
	if keptSite["edgeAB"] != siteA || keptSite["edgeBA"] != siteB || siteA == siteB {
		t.Fatalf("edge streams keep sites %#x / %#x, want %#x / %#x", keptSite["edgeAB"], keptSite["edgeBA"], siteA, siteB)
	}
}
