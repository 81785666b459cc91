package tv

import (
	"fmt"

	"csspgo/internal/ir"
)

// The differential-execution oracle interprets IR directly instead of going
// through codegen + sim: the point is to compare two *IR* states of the same
// program, including mid-pipeline states that codegen has never seen. The
// arithmetic semantics deliberately mirror internal/sim (div/rem by zero
// yield 0, shift counts masked to 6 bits, global offsets wrap modulo the
// flat global segment), so the oracle's verdicts transfer to the machine.
//
// Function identity is the one place the interpreter is stricter than the
// machine: OpFuncRef values come from a name-keyed table shared by every
// program state under comparison (codegen's program-order indices would
// shift when drop-dead-functions runs), and an indirect call through a
// value that is not a live function id traps deterministically instead of
// wrapping. The trap is part of the compared output, so a pass that breaks
// funcref provenance still diverges visibly.

// EventKind tags one entry of the observable effect trace.
type EventKind uint8

// Observable event kinds.
const (
	// evStore: a global store retired (offset into the flat segment + value).
	evStore EventKind = iota
	// evCounter: an instrumentation counter increment.
	evCounter
)

// Event is one observable effect, with enough context to attribute a trace
// divergence to a function.
type Event struct {
	Kind EventKind
	Off  int64  // flat global offset (evStore) or counter index (evCounter)
	Val  int64  // stored value (evStore)
	Func string // function executing the event
}

func (e Event) String() string {
	if e.Kind == evCounter {
		return fmt.Sprintf("counter[%d] in %s", e.Off, e.Func)
	}
	return fmt.Sprintf("store g[%d]=%d in %s", e.Off, e.Val, e.Func)
}

// Run statuses.
const (
	statusOK        = "ok"
	statusStepLimit = "step-limit"
	statusDepth     = "depth-limit"
)

// RunResult is one interpreted execution's observable outcome: the return
// value, a digest of the full effect trace plus its length, the final
// global state, and a prefix of the trace verbatim for attribution.
type RunResult struct {
	Status     string // statusOK/statusStepLimit/statusDepth or "trap: ..."
	Ret        int64
	Steps      uint64
	TraceHash  uint64
	TraceLen   int
	GlobalHash uint64
	Events     []Event // first maxRecordedEvents of the trace
}

// maxRecordedEvents bounds the verbatim trace prefix kept per run; the full
// trace is always folded into TraceHash/TraceLen.
const maxRecordedEvents = 64

// maxSteps bounds one interpreted run (per corpus input).
const maxSteps = 2_000_000

// maxCallDepth bounds the interpreter's frame stack. TailCall'd calls are
// interpreted as plain calls (the flag is a codegen contract, not a change
// of meaning), so deep tail recursion needs real frames here.
const maxCallDepth = 1 << 16

// execContext fixes everything about execution that must be identical for
// every program state under comparison: the flat global layout, the initial
// image, and the name-keyed funcref table. Build it once
// from the baseline program; passes never add globals and the table extends
// by name, so it stays valid across the whole pipeline.
type execContext struct {
	goff   map[string]int64 // global name -> flat segment offset
	ginit  []int64          // initial flat global image
	fnID   map[string]int64 // function name -> stable funcref id
	fnName []string         // inverse of fnID
}

func newExecContext(p *ir.Program) *execContext {
	c := &execContext{goff: map[string]int64{}, fnID: map[string]int64{}}
	for _, name := range p.GOrder {
		g := p.Globals[name]
		c.goff[name] = int64(len(c.ginit))
		init := make([]int64, g.Size)
		copy(init, g.Init)
		c.ginit = append(c.ginit, init...)
	}
	for _, name := range p.Order {
		c.fnID[name] = int64(len(c.fnName))
		c.fnName = append(c.fnName, name)
	}
	return c
}

// frame is one interpreted activation record.
type frame struct {
	f      *ir.Function
	regs   []int64
	b      *ir.Block
	i      int    // next instruction index in b
	retDst ir.Reg // caller register receiving the return value
}

// wrapOff reproduces sim's global-offset wrap (modulo the flat segment
// size, non-negative).
func wrapOff(off int64, n int) int64 {
	if n == 0 {
		return 0
	}
	off %= int64(n)
	if off < 0 {
		off += int64(n)
	}
	return off
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// Run interprets p's main on args under the shared context and returns the
// observable outcome. p may be any pipeline state of the program the
// context was built from.
func (c *execContext) Run(p *ir.Program, args []int64) RunResult {
	res := RunResult{Status: statusOK, TraceHash: fnvOffset}
	globals := make([]int64, len(c.ginit))
	copy(globals, c.ginit)

	event := func(e Event) {
		res.TraceHash = fnvMix(res.TraceHash, uint64(e.Kind))
		res.TraceHash = fnvMix(res.TraceHash, uint64(e.Off))
		res.TraceHash = fnvMix(res.TraceHash, uint64(e.Val))
		res.TraceLen++
		if len(res.Events) < maxRecordedEvents {
			res.Events = append(res.Events, e)
		}
	}
	trap := func(format string, a ...any) {
		res.Status = "trap: " + fmt.Sprintf(format, a...)
	}
	finish := func() RunResult {
		h := uint64(fnvOffset)
		for _, v := range globals {
			h = fnvMix(h, uint64(v))
		}
		res.GlobalHash = h
		return res
	}

	main := p.Funcs["main"]
	if main == nil {
		trap("program has no main")
		return finish()
	}
	newFrame := func(f *ir.Function, args []int64, retDst ir.Reg) frame {
		regs := make([]int64, f.NRegs)
		for i := range args {
			if i < len(f.Params) {
				regs[i] = args[i]
			}
		}
		return frame{f: f, regs: regs, b: f.Entry(), retDst: retDst}
	}
	stack := []frame{newFrame(main, args, ir.NoReg)}

	steps := uint64(0)
	for {
		steps++
		if steps > maxSteps {
			res.Status = statusStepLimit
			break
		}
		fr := &stack[len(stack)-1]
		r := fr.regs

		if fr.i < len(fr.b.Instrs) {
			in := &fr.b.Instrs[fr.i]
			fr.i++
			switch in.Op {
			case ir.OpConst:
				r[in.Dst] = in.Value
			case ir.OpMove:
				r[in.Dst] = r[in.A]
			case ir.OpNot:
				r[in.Dst] = b2i(r[in.A] == 0)
			case ir.OpNeg:
				r[in.Dst] = -r[in.A]
			case ir.OpBin:
				a, b := r[in.A], r[in.B]
				var v int64
				switch in.BinKind {
				case ir.BinAdd:
					v = a + b
				case ir.BinSub:
					v = a - b
				case ir.BinMul:
					v = a * b
				case ir.BinDiv:
					if b != 0 {
						v = a / b
					}
				case ir.BinRem:
					if b != 0 {
						v = a % b
					}
				case ir.BinEq:
					v = b2i(a == b)
				case ir.BinNe:
					v = b2i(a != b)
				case ir.BinLt:
					v = b2i(a < b)
				case ir.BinLe:
					v = b2i(a <= b)
				case ir.BinGt:
					v = b2i(a > b)
				case ir.BinGe:
					v = b2i(a >= b)
				case ir.BinAnd:
					v = a & b
				case ir.BinOr:
					v = a | b
				case ir.BinXor:
					v = a ^ b
				case ir.BinShl:
					v = a << (uint64(b) & 63)
				case ir.BinShr:
					v = a >> (uint64(b) & 63)
				}
				r[in.Dst] = v
			case ir.OpSelect:
				if r[in.A] != 0 {
					r[in.Dst] = r[in.B]
				} else {
					r[in.Dst] = r[in.C]
				}
			case ir.OpLoadG:
				off := c.goff[in.Sym()]
				if in.Index != ir.NoReg {
					off += r[in.Index]
				}
				r[in.Dst] = globals[wrapOff(off, len(globals))]
			case ir.OpStoreG:
				off := wrapOff(func() int64 {
					o := c.goff[in.Sym()]
					if in.Index != ir.NoReg {
						o += r[in.Index]
					}
					return o
				}(), len(globals))
				globals[off] = r[in.A]
				event(Event{Kind: evStore, Off: off, Val: r[in.A], Func: fr.f.Name})
			case ir.OpCounter:
				event(Event{Kind: evCounter, Off: in.Value, Func: fr.f.Name})
			case ir.OpProbe:
				// Pseudo-probes are observationally invisible by contract.
			case ir.OpFuncRef:
				sym := in.Sym()
				id, ok := c.fnID[sym]
				if !ok {
					// A function first referenced mid-pipeline (none of the
					// current passes does this, but the table must not alias).
					id = int64(len(c.fnName))
					c.fnID[sym] = id
					c.fnName = append(c.fnName, sym)
				}
				r[in.Dst] = id
			case ir.OpCall, ir.OpICall:
				var callee *ir.Function
				if in.Op == ir.OpCall {
					callee = p.Funcs[in.Sym()]
					if callee == nil {
						trap("call to undefined function %q in %s", in.Sym(), fr.f.Name)
					}
				} else {
					tgt := r[in.A]
					if tgt < 0 || tgt >= int64(len(c.fnName)) {
						trap("indirect call through non-function value %d in %s", tgt, fr.f.Name)
					} else if callee = p.Funcs[c.fnName[tgt]]; callee == nil {
						trap("indirect call to dropped function %q in %s", c.fnName[tgt], fr.f.Name)
					}
				}
				if callee == nil {
					break
				}
				if len(stack) >= maxCallDepth {
					res.Status = statusDepth
					break
				}
				args := in.Args()
				cargs := make([]int64, len(args))
				for i, a := range args {
					cargs[i] = r[a]
				}
				stack = append(stack, newFrame(callee, cargs, in.Dst))
			}
			if res.Status != statusOK {
				break
			}
			continue
		}

		// Block exhausted: take the terminator.
		t := &fr.b.Term
		switch t.Kind {
		case ir.TermJump:
			fr.b, fr.i = t.Succs[0], 0
		case ir.TermBranch:
			if r[t.Cond] != 0 {
				fr.b = t.Succs[0]
			} else {
				fr.b = t.Succs[1]
			}
			fr.i = 0
		case ir.TermSwitch:
			v := r[t.Cond]
			next := t.Succs[len(t.Succs)-1] // default
			for ci, cv := range t.Cases {
				if v == cv {
					next = t.Succs[ci]
					break
				}
			}
			fr.b, fr.i = next, 0
		case ir.TermReturn:
			var val int64
			if t.Val != ir.NoReg {
				val = r[t.Val]
			}
			retDst := fr.retDst
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				res.Ret = val
				res.Steps = steps
				return finish()
			}
			caller := &stack[len(stack)-1]
			if retDst != ir.NoReg {
				caller.regs[retDst] = val
			}
		}
	}
	res.Steps = steps
	return finish()
}
