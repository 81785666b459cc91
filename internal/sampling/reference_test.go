package sampling

// The serial per-sample reference: one sample at a time, one range at a
// time, no chunking, no deferred resolution, no merge. It is the obviously
// correct reading of §III.B and exists only as the oracle the engine in
// stream.go is compared against — the fuzzer needs a reference that works
// on inputs no golden file covers. It shares only the attribution back half
// (generate*From, attributeICallTargets, finalizeProbeProfile) with the
// engine; everything that touches a sample is separate code.

import (
	"sort"

	"csspgo/internal/ir"
	"csspgo/internal/machine"
	"csspgo/internal/profdata"
	"csspgo/internal/sim"
)

// referenceCSSPGO is GenerateCSSPGO as a serial loop over samples.
func referenceCSSPGO(bin *machine.Prog, samples []sim.Sample, opts CSSPGOOptions) (*profdata.Profile, UnwindStats) {
	var tails *tailCallGraph
	if opts.TailCallInference {
		tails = BuildTailCallGraph(bin, samples)
	}
	p, st := unwindShard(bin, samples, tails, opts)
	// Indirect-call target histograms are context-insensitive: they land in
	// the base profiles.
	attributeICallTargets(bin, icallTargetsSerial(bin, samples), func(rec *machine.ProbeRec) *profdata.FunctionProfile {
		return p.FuncProfile(rec.Func)
	})
	finalizeProbeProfile(bin, p)
	return p, st
}

// referenceAutoFDO is GenerateAutoFDO over serially-counted addresses.
func referenceAutoFDO(bin *machine.Prog, samples []sim.Sample) *profdata.Profile {
	return generateAutoFDOFrom(bin, addrCountsSerial(bin, samples), icallTargetsSerial(bin, samples), FlatOptions{}, len(samples))
}

// referenceProbeProfile is GenerateProbeProfile over serially-counted
// addresses.
func referenceProbeProfile(bin *machine.Prog, samples []sim.Sample) *profdata.Profile {
	return generateProbeProfileFrom(bin, addrCountsSerial(bin, samples), icallTargetsSerial(bin, samples), FlatOptions{}, len(samples))
}

// BuildTailCallGraph scans every LBR record of every sample and collects
// edges whose source instruction is a tail call, keeping the first
// observation of each edge.
func BuildTailCallGraph(bin *machine.Prog, samples []sim.Sample) *tailCallGraph {
	g := &tailCallGraph{edges: map[string]map[string]*tailEdge{}}
	for _, s := range samples {
		for _, br := range s.LBR {
			in := bin.InstrAt(br.From)
			if in == nil || in.Kind != machine.KTailCall {
				continue
			}
			from := bin.FuncAt(br.From)
			to := bin.FuncAt(br.To)
			if from == nil || to == nil {
				continue
			}
			m := g.edges[from.Name]
			if m == nil {
				m = map[string]*tailEdge{}
				g.edges[from.Name] = m
			}
			if _, ok := m[to.Name]; !ok {
				m[to.Name] = &tailEdge{From: from.Name, To: to.Name, SiteAddr: br.From}
			}
		}
	}
	return g
}

// unwindShard runs the per-sample attribution loop with one unwinder and
// one profile.
func unwindShard(bin *machine.Prog, shard []sim.Sample, tails *tailCallGraph, opts CSSPGOOptions) (*profdata.Profile, UnwindStats) {
	u := newUnwinder(bin, tails)
	u.AssumeAligned = opts.AssumeAligned
	p := profdata.New(profdata.ProbeBased, true)

	for _, s := range shard {
		for _, cr := range u.unwindOne(s) {
			leafFn := bin.FuncAt(cr.R.Begin)
			if leafFn == nil {
				continue
			}
			var callerCtx profdata.Context
			if !cr.Truncated {
				callerCtx = u.contextOf(cr.Callers, leafFn.Name, profdata.ProbeBased)
			}
			lo, hi := instrsIn(bin, cr.R.Begin, cr.R.End)
			for i := lo; i < hi; i++ {
				addr := bin.Instrs[i].Addr
				for _, rec := range bin.ProbesAt(addr) {
					var fp *profdata.FunctionProfile
					if cr.Truncated {
						// Outer context unknown: attributing under the
						// partially-recovered callers would mint a false
						// shallow context, so the counts fall back to the
						// context-insensitive base profile.
						fp = p.FuncProfile(rec.Func)
					} else {
						ctx := contextForProbe(nil, callerCtx, &rec, opts.MaxContextDepth)
						fp = p.ContextProfile(ctx)
					}
					w := probeWeight(rec.Factor)
					if w == 0 {
						continue
					}
					loc := profdata.LocKey{ID: rec.ID}
					switch rec.Kind {
					case ir.ProbeBlock:
						fp.AddBody(loc, w)
					case ir.ProbeCall:
						in := bin.InstrAt(addr)
						if in != nil && (in.Kind == machine.KCall || in.Kind == machine.KTailCall) {
							fp.AddCall(loc, bin.Funcs[in.CalleeID].Name, w)
						}
					}
				}
			}
		}
	}
	return p, u.Stats
}

// icallTargetsSerial aggregates LBR call branches out of indirect-call
// sites (site address -> callee name -> count).
func icallTargetsSerial(bin *machine.Prog, samples []sim.Sample) map[uint64]map[string]uint64 {
	out := map[uint64]map[string]uint64{}
	for _, s := range samples {
		for _, br := range s.LBR {
			in := bin.InstrAt(br.From)
			if in == nil || in.Kind != machine.KICall {
				continue
			}
			callee := bin.FuncAt(br.To)
			if callee == nil {
				continue
			}
			m := out[br.From]
			if m == nil {
				m = map[string]uint64{}
				out[br.From] = m
			}
			m[callee.Name]++
		}
	}
	return out
}

// AppendLBRRanges derives the linear execution ranges from one LBR snapshot
// (newest entry first): for consecutive records b[i] (newer) and b[i+1]
// (older), execution ran linearly from b[i+1].To to b[i].From. Invalid
// ranges (e.g. truncated LBR tails) are dropped.
func AppendLBRRanges(dst []addrRange, bin *machine.Prog, lbr []sim.BranchRec) []addrRange {
	for i := 0; i+1 < len(lbr); i++ {
		r := addrRange{Begin: lbr[i+1].To, End: lbr[i].From}
		if r.Valid(bin) {
			dst = append(dst, r)
		}
	}
	return dst
}

// AddRange adds w to every instruction address covered by r, looking the
// range up by address (the engine adds by resolved index, addInstrs).
func (c *AddrCounter) AddRange(r addrRange, w uint64) {
	lo, hi := instrsIn(c.bin, r.Begin, r.End)
	for i := lo; i < hi; i++ {
		c.counts[i] += w
	}
}

// addrCountsSerial accumulates per-address execution counts from every
// sample's LBR ranges into one AddrCounter.
func addrCountsSerial(bin *machine.Prog, samples []sim.Sample) *AddrCounter {
	ac := newAddrCounter(bin)
	for _, s := range samples {
		for _, r := range AppendLBRRanges(nil, bin, s.LBR) {
			ac.AddRange(r, 1)
		}
	}
	return ac
}

// instrsIn returns the instruction index range [lo, hi) covering the
// address range [start, end] (inclusive of the instruction at end), by
// binary search over the instruction addresses.
func instrsIn(bin *machine.Prog, start, end uint64) (lo, hi int) {
	lo = sort.Search(len(bin.Instrs), func(i int) bool { return bin.Instrs[i].Addr >= start })
	hi = sort.Search(len(bin.Instrs), func(i int) bool { return bin.Instrs[i].Addr > end })
	return lo, hi
}
