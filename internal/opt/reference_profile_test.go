package opt

import (
	"sort"
	"testing"

	"csspgo/internal/analysis"
	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
	"csspgo/internal/workloads"
)

// layout, tail-merge grouping and annotateProbe as they stood before they
// moved to tables by block position (chains in maps of block slices,
// sibling groups in a map by jump target, probes found through a
// probe.Index of maps), kept verbatim as the test oracle.

// layout reorders the function's blocks to maximize fallthrough along hot
// edges — an Ext-TSP-inspired greedy chain merge (Newell & Pupyrev [15],
// degenerating to Pettis-Hansen chaining): every block starts as its own
// chain; candidate (tail→head) edges merge chains in decreasing weight
// order; the entry chain is laid first and remaining chains follow in
// decreasing hotness. Codegen's fallthrough elision and branch-polarity
// selection then turn hot edges into straight-line execution.
//
// Requires edge weights (run inference first); does nothing without them.
func referenceLayout(f *ir.Function) bool {
	hasW := false
	for _, b := range f.Blocks {
		if b.HasWeight {
			hasW = true
			break
		}
	}
	if !hasW || len(f.Blocks) < 3 {
		return false
	}

	chainOf := map[*ir.Block]int{}
	chains := map[int][]*ir.Block{}
	for i, b := range f.Blocks {
		chainOf[b] = i
		chains[i] = []*ir.Block{b}
	}

	type edge struct {
		from, to *ir.Block
		w        uint64
	}
	var edges []edge
	for _, b := range f.Blocks {
		b.Term.EnsureEdgeWeights()
		for si, s := range b.Term.Succs {
			if s == b {
				continue
			}
			edges = append(edges, edge{from: b, to: s, w: b.Term.EdgeW[si]})
		}
	}
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		if edges[i].from.ID != edges[j].from.ID {
			return edges[i].from.ID < edges[j].from.ID
		}
		return edges[i].to.ID < edges[j].to.ID
	})

	for _, e := range edges {
		cf, ct := chainOf[e.from], chainOf[e.to]
		if cf == ct {
			continue
		}
		// Merge only tail-of-cf → head-of-ct.
		tail := chains[cf][len(chains[cf])-1]
		head := chains[ct][0]
		if tail != e.from || head != e.to {
			continue
		}
		// The entry block must stay a chain head.
		if head == f.Entry() {
			continue
		}
		merged := append(chains[cf], chains[ct]...)
		chains[cf] = merged
		for _, b := range chains[ct] {
			chainOf[b] = cf
		}
		delete(chains, ct)
	}

	// Order chains: entry first, then by max block weight descending.
	type chainInfo struct {
		id   int
		heat uint64
		min  int // smallest block ID, for deterministic ties
	}
	var infos []chainInfo
	entryChain := chainOf[f.Entry()]
	for id, blocks := range chains {
		ci := chainInfo{id: id, min: blocks[0].ID}
		for _, b := range blocks {
			if b.Weight > ci.heat {
				ci.heat = b.Weight
			}
			if b.ID < ci.min {
				ci.min = b.ID
			}
		}
		infos = append(infos, ci)
	}
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].id == entryChain {
			return true
		}
		if infos[j].id == entryChain {
			return false
		}
		if infos[i].heat != infos[j].heat {
			return infos[i].heat > infos[j].heat
		}
		return infos[i].min < infos[j].min
	})

	var order []*ir.Block
	for _, ci := range infos {
		order = append(order, chains[ci.id]...)
	}
	if len(order) != len(f.Blocks) {
		return false // unreachable blocks missing; bail conservatively
	}
	f.Blocks = order
	return true
}

// tailMergePass merges identical instruction suffixes of sibling blocks
// that jump to the same successor. With a probe barrier active, suffixes
// containing probes never match across blocks (IDs differ), so the merge is
// blocked — counted separately so experiments can report it: 1 for a merge
// the barrier shortened, or every pair it kept apart in a round that merges
// nothing. It reads no predecessor lists and leaves them stale;
// simplifyCFG's next round rebuilds them.
func referenceTailMergePass(f *ir.Function, barrier BarrierStrength) (merges, blocked int) {
	// Group candidate blocks by their unique jump target.
	groups := map[*ir.Block][]*ir.Block{}
	for _, b := range f.Blocks {
		if b.Term.Kind == ir.TermJump && len(b.Instrs) > 0 {
			t := b.Term.Succs[0]
			groups[t] = append(groups[t], b)
		}
	}
	// Targets in function block order, not map order: the first mergeable
	// group found is the one merged, and the merge order names the blocks.
	for _, target := range f.Blocks {
		siblings := groups[target]
		if len(siblings) < 2 {
			continue
		}
		// Pairwise merge of the first matching pair (iteration restarts).
		for i := 0; i < len(siblings); i++ {
			for j := i + 1; j < len(siblings); j++ {
				a, b := siblings[i], siblings[j]
				n := commonSuffix(a, b, instrsSemanticallyEqual)
				// Probes at block heads carry distinct IDs, so the
				// semantic common suffix always stops short of a full
				// block merge.
				shortened := barrier != BarrierNone && commonSuffix(a, b, probeInsensitiveEqual) > n
				if n == 0 {
					if shortened {
						blocked++
					}
					continue
				}
				// Move the shared suffix into a new block M.
				m := f.NewBlock()
				m.Instrs = append(m.Instrs, a.Instrs[len(a.Instrs)-n:]...)
				m.Term = ir.Terminator{Kind: ir.TermJump, Succs: []*ir.Block{target}}
				m.Weight = a.Weight + b.Weight
				m.HasWeight = a.HasWeight || b.HasWeight
				a.Instrs = truncate(a.Instrs, len(a.Instrs)-n)
				b.Instrs = truncate(b.Instrs, len(b.Instrs)-n)
				a.Term.Succs[0] = m
				b.Term.Succs[0] = m
				if shortened {
					return 1, 1
				}
				return 1, 0
			}
		}
	}
	return 0, blocked
}

// annotateProbe weights f's blocks by probe ID and takes its entry count
// from fp.
func referenceAnnotateProbe(f *ir.Function, fp *profdata.FunctionProfile) {
	f.EntryCount = fp.HeadSamples
	f.HasProfile = true
	idx := probe.BuildIndex(f)
	for id, blocks := range idx.Blocks {
		// A probe with no profile entry was sampled zero times: with the
		// function sampled at all, absence is evidence of coldness.
		w := fp.BodyAt(profdata.LocKey{ID: id})
		for _, b := range blocks {
			b.Weight = w
			b.HasWeight = true
		}
	}
}

// ProfileReferenceHooks returns Config.InjectAfter hooks that hold the
// passes of an optimizing build to the references above, on clones of
// every function (the program is left alone), in one workspace that every
// hook shares as a build's passes share theirs: annotateProbe after
// annotation, with prof's base profile of the function (any profile will
// do for equivalence; a probe-keyed one only), tail merging after
// if-conversion, which is where the second simplifyCFG merges tails,
// round by round at both barrier settings, and layout after inference,
// which precedes it. Exported to the corpus test in package opt_test.
func ProfileReferenceHooks(t testing.TB, prof *profdata.Profile) map[string]func(*ir.Program) {
	ws := new(workspace)
	return map[string]func(*ir.Program){
		annotatePass.name: func(p *ir.Program) {
			if prof == nil || prof.Kind != profdata.ProbeBased {
				return
			}
			for _, f := range p.Functions() {
				if fp := prof.Funcs[f.Name]; fp != nil {
					checkAnnotateAgainstReference(t, f, fp)
				}
			}
		},
		ifConvertPass.name: func(p *ir.Program) {
			for _, f := range p.Functions() {
				checkTailMergeAgainstReference(t, ws, f)
			}
		},
		inferencePass.name: func(p *ir.Program) {
			for _, f := range p.Functions() {
				checkLayoutAgainstReference(t, ws, f)
			}
		},
	}
}

// checkAnnotateAgainstReference annotates two clones of f from fp, with
// annotateProbe and with the reference, and requires the same entry count
// and the same weight on every block.
func checkAnnotateAgainstReference(t testing.TB, f *ir.Function, fp *profdata.FunctionProfile) {
	t.Helper()
	want, got := ir.CloneFunction(f), ir.CloneFunction(f)
	referenceAnnotateProbe(want, fp)
	annotateProbe(got, fp)
	if got.EntryCount != want.EntryCount || got.HasProfile != want.HasProfile {
		t.Errorf("annotateProbe on %s: entry count %d; reference says %d", f.Name, got.EntryCount, want.EntryCount)
	}
	for i, b := range got.Blocks {
		if w := want.Blocks[i]; b.Weight != w.Weight || b.HasWeight != w.HasWeight {
			t.Errorf("annotateProbe on %s: b%d weighs %d (%v); reference says %d (%v)", f.Name, b.ID, b.Weight, b.HasWeight, w.Weight, w.HasWeight)
		}
	}
}

// checkTailMergeAgainstReference runs tail merging and the reference on
// two clones of f, round by round as simplifyCFG does, until neither
// merges, and requires the same merge and blocked counts every round and
// the same IR after it.
func checkTailMergeAgainstReference(t testing.TB, ws *workspace, f *ir.Function) {
	t.Helper()
	for _, barrier := range []BarrierStrength{BarrierNone, BarrierWeak} {
		want, got := ir.CloneFunction(f), ir.CloneFunction(f)
		for round := 0; ; round++ {
			want.RebuildCFG()
			got.RebuildCFG()
			wantN, wantBlocked := referenceTailMergePass(want, barrier)
			gotN, gotBlocked := ws.tailMergePass(got, barrier)
			if gotN != wantN || gotBlocked != wantBlocked {
				t.Errorf("tail merge on %s, round %d: %d merges, %d blocked; reference says %d, %d", f.Name, round, gotN, gotBlocked, wantN, wantBlocked)
				return
			}
			if g, w := got.String(), want.String(); g != w {
				t.Errorf("tail merge on %s, round %d, differs from the reference:\n%s", f.Name, round, analysis.DiffLines(w, g))
				return
			}
			if gotN == 0 {
				break
			}
		}
	}
}

// checkLayoutAgainstReference lays two clones of f out, as layoutProgram
// does, with layout and with the reference, and requires the same verdict
// and the same block order.
func checkLayoutAgainstReference(t testing.TB, ws *workspace, f *ir.Function) {
	t.Helper()
	want, got := ir.CloneFunction(f), ir.CloneFunction(f)
	want.RemoveUnreachable()
	got.RemoveUnreachable()
	wantOK, gotOK := referenceLayout(want), ws.layout(got)
	if gotOK != wantOK {
		t.Errorf("layout on %s: %v; reference says %v", f.Name, gotOK, wantOK)
	}
	for i, b := range got.Blocks {
		if b.ID != want.Blocks[i].ID {
			t.Errorf("layout on %s differs from the reference:\n%s", f.Name, analysis.DiffLines(want.String(), got.String()))
			return
		}
	}
}

// TestProfiledPassesMatchReferenceOnGeneratedPrograms holds annotateProbe,
// tail merging and layout to their references on workloads.Generate's
// seeded programs: each is trained on its train requests and profiled,
// then optimized with its CS profile and with that profile's flat
// projection, and compiled once as a training build (tail merging only).
func TestProfiledPassesMatchReferenceOnGeneratedPrograms(t *testing.T) {
	n := 48
	if testing.Short() {
		n = 8
	}
	for seed := int64(0); seed < int64(n); seed++ {
		w, src := workloads.Generate(seed)
		cs := runTrainingBuild(t, w, src)
		for _, prof := range []*profdata.Profile{nil, cs, cs.Flat()} {
			p, err := irgen.Lower(w.Files...)
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, src)
			}
			probe.InsertProgram(p)
			cfg := &Config{Profile: prof, Barrier: BarrierWeak, CSHotContextThreshold: 2}
			cfg.InjectAfter = ProfileReferenceHooks(t, prof)
			if _, err := Optimize(p, cfg); err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, src)
			}
			if t.Failed() {
				t.Fatalf("seed %d:\n%s", seed, src)
			}
		}
	}
}
