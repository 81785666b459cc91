package sampling

import (
	"csspgo/internal/ir"
	"csspgo/internal/machine"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
	"csspgo/internal/sim"
)

// ctxRange is a linear execution range together with the virtual call stack
// in effect while it executed: Callers holds resume addresses of the frames
// above the range's function, outermost first. Truncated marks ranges whose
// outer context is unknown because the stack sample was shallower than the
// LBR history reached back; their Callers (possibly re-grown by later
// return records) are an incomplete suffix of the real context and must not
// be aggregated as if they were the whole of it.
type ctxRange struct {
	R addrRange
	// Lo, Hi and Fn are R resolved once against the binary: the
	// instruction-index interval [Lo, Hi) it covers and the function it
	// executed in, so consumers attribute the range without looking its
	// addresses up again.
	Lo, Hi int32
	Fn     *machine.Func
	// Callers is valid until the next unwind: it lives in the unwinder's
	// arena, and a range with SameCallers shares the previous range's slice.
	Callers   []uint64
	Truncated bool
	// SameCallers reports that Callers is content-identical to the previous
	// ctxRange emitted for this sample (false for the first). Intra-function
	// branches dominate hot LBRs, so consumers aggregating by context can
	// reuse the previous range's context lookup instead of re-hashing.
	SameCallers bool
}

// UnwindStats counts missing-frame inference outcomes.
type UnwindStats struct {
	Samples            int // samples accepted (non-empty LBR and stack)
	Dropped            int // samples rejected before unwinding
	Ranges             int
	TruncatedRanges    int // ranges whose outer context was unknowable
	SkidAdjusted       int // stacks detected lagging the LBR by one frame
	MissingFrameEvents int // caller/callee mismatches seen (per context lookup)
	EventsRecovered    int // mismatches repaired via a unique tail-call path
	FramesRecovered    int // total frames reinserted by those repairs
}

// Add accumulates another worker's stats (the shard-merge reduction).
func (s *UnwindStats) Add(o UnwindStats) {
	s.Samples += o.Samples
	s.Dropped += o.Dropped
	s.Ranges += o.Ranges
	s.TruncatedRanges += o.TruncatedRanges
	s.SkidAdjusted += o.SkidAdjusted
	s.MissingFrameEvents += o.MissingFrameEvents
	s.EventsRecovered += o.EventsRecovered
	s.FramesRecovered += o.FramesRecovered
}

// unwinder reconstructs calling contexts from synchronized LBR + stack
// samples — the paper's Algorithm 1. LBR branches are processed in reverse
// execution order (newest first), undoing each branch's frame effect to
// recover the stack in effect when each linear range executed.
//
// unwind reuses internal scratch buffers: the returned ranges and their
// Callers slices stay valid only until the next unwind call. Callers that
// need the data longer must copy it (the streaming collector copies Callers
// once per distinct context).
type unwinder struct {
	bin   *machine.Prog
	ix    *machine.Index // bin's lookup tables, fetched once
	tails *tailCallGraph // nil disables missing-frame inference
	Stats UnwindStats
	// AssumeAligned skips skid detection (PEBS ablation only).
	AssumeAligned bool

	// Per-call scratch, reused across unwind calls so the steady-state hot
	// path does not allocate.
	callersBuf []uint64
	fromBuf    []int32 // decode of the sample being unwound
	outBuf     []ctxRange
	arena      []uint64 // backing store for the returned Callers slices
}

// newUnwinder returns an unwinder over bin. tails may be nil.
func newUnwinder(bin *machine.Prog, tails *tailCallGraph) *unwinder {
	return &unwinder{bin: bin, ix: bin.Index(), tails: tails}
}

// decode returns the instruction index of every record's branch source (-1
// for an address that is no instruction start) in the unwinder's scratch
// buffer, valid until the next call. One decode per record serves the
// collector's tail-call / indirect-call scan, the frame effects undone
// below and the end of the range the record closes.
func (u *unwinder) decode(lbr []sim.BranchRec) []int32 {
	from := u.fromBuf[:0]
	for i := range lbr {
		from = append(from, int32(u.ix.InstrIndexAt(lbr[i].From)))
	}
	u.fromBuf = from
	return from
}

// unwind is unwindOne for n identical samples at once: from is decode of the
// sample's LBR, and every per-sample stat counts n.
func (u *unwinder) unwind(s *sim.Sample, from []int32, n int) []ctxRange {
	if len(s.LBR) == 0 || len(s.Stack) == 0 {
		u.Stats.Dropped += n
		return nil
	}
	u.Stats.Samples += n
	// The stack sample is leaf-first [pc, ret1, ret2, ...]; the virtual
	// stack keeps callers only, outermost first.
	callers := u.callersBuf[:0]
	for i := len(s.Stack) - 1; i >= 1; i-- {
		callers = append(callers, s.Stack[i])
	}

	// Skid detection: with PEBS the stack leaf is synchronized with the
	// newest LBR branch's target. A lagging stack (no PEBS) reflects the
	// state *before* that branch, so its frame effect must not be undone.
	aligned := true
	if !u.AssumeAligned {
		leafFn := u.ix.FuncAt(s.Stack[0])
		toFn := u.ix.FuncAt(s.LBR[0].To)
		if leafFn == nil || toFn == nil || leafFn != toFn {
			aligned = false
			u.Stats.SkidAdjusted += n
		}
	}

	out := u.outBuf[:0]
	u.arena = u.arena[:0]
	truncated := false
	mutated := false // callers changed since the last emitted range
	var cc []uint64  // the last emitted range's snapshot of callers
	for i := 0; i+1 < len(s.LBR); i++ {
		br := s.LBR[i]
		if aligned || i > 0 {
			// Undo br's frame effect (travelling back in time).
			if from[i] < 0 {
				break // corrupt record; stop unwinding this sample
			}
			switch u.bin.Instrs[from[i]].Kind {
			case machine.KCall:
				if len(callers) == 0 {
					// Stack shallower than LBR history; every context
					// recovered from here back is missing its outer
					// frames. Later KRet records may re-grow callers with
					// genuinely known inner frames, but the context below
					// them stays unknown, so the truncation is sticky.
					truncated = true
				} else {
					callers = callers[:len(callers)-1]
					mutated = true
				}
			case machine.KRet:
				callers = append(callers, br.To)
				mutated = true
			case machine.KTailCall:
				// Frame was reused: leaf function changes, callers do not.
			}
		}
		r := addrRange{Begin: s.LBR[i+1].To, End: br.From}
		lo, hi, fn := resolveRange(u.ix, r.Begin, r.End, int(from[i]))
		if fn == nil {
			continue
		}
		u.Stats.Ranges += n
		if truncated {
			u.Stats.TruncatedRanges += n
		}
		same := len(out) > 0 && !mutated
		if !same {
			// Snapshot callers into the arena. Each snapshot is capped with
			// a three-index slice, so a later arena append either writes
			// past it or reallocates — never into an already-handed-out
			// snapshot.
			start := len(u.arena)
			u.arena = append(u.arena, callers...)
			cc = u.arena[start:len(u.arena):len(u.arena)]
		}
		out = append(out, ctxRange{R: r, Lo: lo, Hi: hi, Fn: fn, Callers: cc, Truncated: truncated, SameCallers: same})
		mutated = false
	}
	u.callersBuf = callers[:0]
	u.outBuf = out
	return out
}

// contextOf appends the profile context frames of a virtual caller stack
// to dst (outermost first), expanding inlined call sites via probe metadata
// and repairing tail-call holes via the tail-call graph. The result holds
// caller frames only — the caller appends the leaf frame(s). leafFunc is the
// physical function the ranges execute in. Every caller/callee mismatch
// counts into Stats, once per call.
func (u *unwinder) contextOf(dst profdata.Context, callers []uint64, leafFunc string) profdata.Context {
	ctx := dst[:0]
	for i, resume := range callers {
		call := u.callSiteBefore(resume)
		if call == nil {
			// Unknown linkage: discard outer context, keep going.
			ctx = ctx[:0]
			continue
		}
		ctx = u.appendCallSite(ctx, call)
		// Static target vs. observed next frame: repair tail-call holes.
		target := u.bin.Funcs[call.CalleeID].Name
		next := leafFunc
		if i+1 < len(callers) {
			if nf := u.ix.FuncAt(callers[i+1]); nf != nil {
				next = nf.Name
			}
		}
		if target != next {
			u.Stats.MissingFrameEvents++
			if u.tails != nil {
				if path := u.tails.inferPath(target, next); path != nil {
					for _, pe := range path {
						ctx = append(ctx, profdata.ContextFrame{Func: pe.From, Site: u.callProbeAt(pe.SiteAddr, pe.From)})
					}
					u.Stats.EventsRecovered++
					u.Stats.FramesRecovered += len(path)
				}
			}
		}
	}
	return ctx
}

// callSiteBefore finds the call/tail-call instruction immediately preceding
// a return (resume) address.
func (u *unwinder) callSiteBefore(resume uint64) *machine.Instr {
	idx := u.ix.InstrIndexAt(resume)
	if idx <= 0 {
		return nil
	}
	in := &u.bin.Instrs[idx-1]
	if in.Kind != machine.KCall && in.Kind != machine.KTailCall {
		return nil
	}
	return in
}

// appendCallSite appends the context frames of one physical call site to
// ctx (outermost first): the inline frames its call probe was compiled
// through, then the frame of the function textually containing the call,
// keyed by the call probe.
func (u *unwinder) appendCallSite(ctx profdata.Context, call *machine.Instr) profdata.Context {
	for _, pi := range u.ix.ProbeIndicesAt(call.Addr) {
		if rec := &u.bin.Probes[pi]; rec.Kind == ir.ProbeCall {
			ctx = probe.AppendInlineContext(ctx, rec.InlinedAt)
			return append(ctx, profdata.ContextFrame{Func: rec.Func, Site: profdata.LocKey{ID: rec.ID}})
		}
	}
	// No call probe (e.g. probe-less build); fall back to symbol+0.
	if f := u.ix.FuncAt(call.Addr); f != nil {
		return append(ctx, profdata.ContextFrame{Func: f.Name})
	}
	return ctx
}

// callProbeAt keys the call instruction at addr within function fn by its
// call probe (the zero key when it has none).
func (u *unwinder) callProbeAt(addr uint64, fn string) profdata.LocKey {
	for _, pi := range u.ix.ProbeIndicesAt(addr) {
		if rec := &u.bin.Probes[pi]; rec.Kind == ir.ProbeCall && rec.Func == fn {
			return profdata.LocKey{ID: rec.ID}
		}
	}
	return profdata.LocKey{}
}
