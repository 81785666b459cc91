package sampling

import (
	"encoding/binary"

	"csspgo/internal/ir"
	"csspgo/internal/machine"
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
	tails *tailCallGraph // nil disables missing-frame inference
	Stats UnwindStats
	// AssumeAligned skips skid detection (PEBS ablation only).
	AssumeAligned bool

	ctxCache map[string]ctxEntry

	// Per-call scratch, reused across unwind/contextOf calls so the
	// steady-state hot path does not allocate.
	keyBuf     []byte
	callersBuf []uint64
	fromBuf    []int32 // decode of the sample being unwound
	outBuf     []ctxRange
	arena      []uint64 // backing store for the returned Callers slices
}

// ctxEntry memoizes one resolved context together with the inference-stat
// deltas its construction produced. Replaying the deltas on every cache hit
// keeps the stats proportional to lookups, not cache misses — otherwise a
// sharded run (one private cache per worker) would rebuild and re-count the
// same context up to once per worker and the stats would depend on the
// worker count.
type ctxEntry struct {
	ctx       profdata.Context
	missing   int
	recovered int
	frames    int
}

// newUnwinder returns an unwinder over bin. tails may be nil.
func newUnwinder(bin *machine.Prog, tails *tailCallGraph) *unwinder {
	return &unwinder{bin: bin, tails: tails, ctxCache: map[string]ctxEntry{}}
}

// decode returns the instruction index of every record's branch source (-1
// for an address that is no instruction start) in the unwinder's scratch
// buffer, valid until the next call. One decode per record serves the
// collector's tail-call / indirect-call scan, the frame effects undone
// below and the end of the range the record closes.
func (u *unwinder) decode(lbr []sim.BranchRec) []int32 {
	from := u.fromBuf[:0]
	for i := range lbr {
		from = append(from, int32(u.bin.InstrIndexAt(lbr[i].From)))
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
		leafFn := u.bin.FuncAt(s.Stack[0])
		toFn := u.bin.FuncAt(s.LBR[0].To)
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
		lo, hi, fn := resolveRange(u.bin, r.Begin, r.End, int(from[i]))
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

// contextOf converts a virtual caller stack into profile context frames
// (outermost first), expanding inlined call sites via debug info or probe
// metadata and repairing tail-call holes via the tail-call graph. The
// returned context holds caller frames only — the caller appends the leaf
// frame(s). leafFunc is the physical function the ranges execute in.
func (u *unwinder) contextOf(callers []uint64, leafFunc string, kind profdata.Kind) profdata.Context {
	// The map lookup through string(keyBuf) compiles to a no-copy probe, so
	// the cache-hit path allocates nothing; the key is materialized as a
	// string only when a new entry must be stored.
	u.keyBuf = appendCacheKey(u.keyBuf[:0], callers, leafFunc, kind)
	if e, ok := u.ctxCache[string(u.keyBuf)]; ok {
		u.Stats.MissingFrameEvents += e.missing
		u.Stats.EventsRecovered += e.recovered
		u.Stats.FramesRecovered += e.frames
		return e.ctx
	}
	key := string(u.keyBuf)
	var ctx profdata.Context
	var e ctxEntry
	for i, resume := range callers {
		call := u.callSiteBefore(resume)
		if call == nil {
			// Unknown linkage: discard outer context, keep going.
			ctx = ctx[:0]
			continue
		}
		frames := u.callSiteFrames(call, kind)
		ctx = append(ctx, frames...)
		// Static target vs. observed next frame: repair tail-call holes.
		target := u.bin.Funcs[call.CalleeID].Name
		next := leafFunc
		if i+1 < len(callers) {
			if nf := u.bin.FuncAt(callers[i+1]); nf != nil {
				next = nf.Name
			}
		}
		if target != next {
			e.missing++
			if u.tails != nil {
				if path := u.tails.inferPath(target, next); path != nil {
					for _, pe := range path {
						site := u.siteOfAddr(pe.SiteAddr, pe.From, kind)
						ctx = append(ctx, profdata.ContextFrame{Func: pe.From, Site: site})
					}
					e.recovered++
					e.frames += len(path)
				}
			}
		}
	}
	e.ctx = append(profdata.Context(nil), ctx...)
	u.ctxCache[key] = e
	u.Stats.MissingFrameEvents += e.missing
	u.Stats.EventsRecovered += e.recovered
	u.Stats.FramesRecovered += e.frames
	return e.ctx
}

// callSiteBefore finds the call/tail-call instruction immediately preceding
// a return (resume) address.
func (u *unwinder) callSiteBefore(resume uint64) *machine.Instr {
	idx := u.bin.InstrIndexAt(resume)
	if idx <= 0 {
		return nil
	}
	in := &u.bin.Instrs[idx-1]
	if in.Kind != machine.KCall && in.Kind != machine.KTailCall {
		return nil
	}
	return in
}

// callSiteFrames expands one physical call site into context frames
// (outermost first): inline frames the call was compiled through, then the
// frame of the function textually containing the call, each with its call
// site in the chosen key space.
func (u *unwinder) callSiteFrames(call *machine.Instr, kind profdata.Kind) []profdata.ContextFrame {
	if kind == profdata.ProbeBased {
		for _, rec := range u.bin.ProbesAt(call.Addr) {
			if rec.Kind != ir.ProbeCall {
				continue
			}
			// InlinedAt chain is innermost-first; reverse it.
			var chain []profdata.ContextFrame
			for s := rec.InlinedAt; s != nil; s = s.Parent {
				chain = append(chain, profdata.ContextFrame{Func: s.Func, Site: profdata.LocKey{ID: s.CallID}})
			}
			out := make([]profdata.ContextFrame, 0, len(chain)+1)
			for i := len(chain) - 1; i >= 0; i-- {
				out = append(out, chain[i])
			}
			return append(out, profdata.ContextFrame{Func: rec.Func, Site: profdata.LocKey{ID: rec.ID}})
		}
		// No call probe (e.g. probe-less build); fall back to symbol+0.
		if f := u.bin.FuncAt(call.Addr); f != nil {
			return []profdata.ContextFrame{{Func: f.Name}}
		}
		return nil
	}
	// Line-based: the Loc chain is innermost-first.
	frames := u.bin.InlinedFramesAt(call.Addr)
	out := make([]profdata.ContextFrame, 0, len(frames))
	for i := len(frames) - 1; i >= 0; i-- {
		fr := frames[i]
		site := profdata.LocKey{Disc: fr.Disc}
		if fn := u.bin.FuncByName[fr.Func]; fn != nil {
			site = lineLoc(fr, fn)
		}
		out = append(out, profdata.ContextFrame{Func: fr.Func, Site: site})
	}
	return out
}

// siteOfAddr keys the instruction at addr within function fn.
func (u *unwinder) siteOfAddr(addr uint64, fn string, kind profdata.Kind) profdata.LocKey {
	if kind == profdata.ProbeBased {
		for _, rec := range u.bin.ProbesAt(addr) {
			if rec.Kind == ir.ProbeCall && rec.Func == fn {
				return profdata.LocKey{ID: rec.ID}
			}
		}
		return profdata.LocKey{}
	}
	frames := u.bin.InlinedFramesAt(addr)
	if len(frames) > 0 {
		if f := u.bin.FuncByName[frames[0].Func]; f != nil {
			return lineLoc(frames[0], f)
		}
	}
	return profdata.LocKey{}
}

// cacheKey renders one (callers, leaf, kind) triple injectively. The caller
// count is length-prefixed and addresses are fixed-width, so the boundary
// between the address block and the leaf name is unambiguous — without the
// prefix, a context of N callers could alias a context of N-1 callers whose
// leaf name happened to start with the missing address's bytes.
func cacheKey(callers []uint64, leaf string, kind profdata.Kind) string {
	return string(appendCacheKey(nil, callers, leaf, kind))
}

// appendCacheKey renders the key into dst (reusing its backing array), so
// hot paths can probe key-indexed maps without materializing a string.
func appendCacheKey(dst []byte, callers []uint64, leaf string, kind profdata.Kind) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(callers)))
	for _, a := range callers {
		for s := 0; s < 64; s += 8 {
			dst = append(dst, byte(a>>s))
		}
	}
	dst = append(dst, byte(kind))
	dst = append(dst, leaf...)
	return dst
}
