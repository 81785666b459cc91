// Package sim executes machine programs on a simulated CPU with a cycle
// cost model (branch predictor, i-cache, call overhead) and a PMU that
// produces synchronized LBR + call-stack samples. It is the reproduction's
// stand-in for the paper's Skylake servers + linux perf.
//
// The simulator is this repository's hardware counter: it may get faster
// but no count it produces may move. testdata/golden.json is that contract
// — every Stats field, return value, sample, counter and meter total over
// the whole corpus — and TestGolden holds Run to it byte for byte.
package sim

import (
	"errors"
	"fmt"
	"sort"

	"csspgo/internal/ir"
	"csspgo/internal/machine"
)

// Stats accumulates execution statistics across runs.
type Stats struct {
	Cycles        uint64
	Instructions  uint64
	CondBranches  uint64
	TakenBranches uint64 // all LBR-visible transfers
	Mispredicts   uint64
	ICacheMisses  uint64
	Calls         uint64
	IndirectCalls uint64
	Returns       uint64
	Samples       uint64
}

// Code is a binary decoded for one cost model: one compact record per
// instruction, every function's entry, and what a machine that runs it must
// size. All of it depends only on the binary and the cost model, so Decode
// builds it once and any number of machines, on any goroutines, run it:
// nothing writes to a Code after Decode returns. It belongs to one cost
// model because a record's cost folds in BaseCPI and CounterCost.
type Code struct {
	Prog *machine.Prog
	Cost CostParams

	// code is Prog.Instrs decoded: one record per instruction, same
	// indices. funcEntry is each function's entry as an index into code,
	// entry is main's.
	code      []dinstr
	funcEntry []int32
	entry     int32
	// tailArgs is the widest tail call's argument list, the size of a
	// machine's argTmp; icall says the text has an indirect call, so a
	// timed machine needs a BTB.
	tailArgs int
	icall    bool
}

// Machine is a simulated CPU + process executing one decoded binary. It
// holds only what a run mutates; the Code it runs is shared and read-only.
// Global state persists across Run calls (a long-lived server process
// handling many requests); Reset restores the initial image.
type Machine struct {
	*Code

	globals  []int64
	counters []uint64
	// The timing model, nil on an untimed machine: 2-bit branch counters
	// (one per instruction index), the i-cache, and a BTB that predicts
	// indirect-call targets by last-seen target per site (instruction
	// index; -1 before the first call); a wrong prediction costs a full
	// mispredict (the penalty ICP's guarded direct call removes on the
	// dominant path).
	pred     []uint8
	btb      []int32
	ic       *icache
	pmu      *pmu
	lastLine uint64 // i-cache line of the last fetch; noLine before the first

	// arena holds every live register file back to back; frames[i].base is
	// where frame i's starts. argTmp stages a tail call's arguments (sized
	// by the Code), snap is the reusable stack-snapshot buffer.
	arena  []int64
	sp     int // end of the innermost frame's registers in arena
	argTmp []int64
	frames []frame
	retVal int64 // value of the last return retired
	snap   []uint64
	stats  Stats

	// vprof holds exact indirect-call target counts per call-site address,
	// collected only on instrumented binaries (value profiling).
	vprof map[uint64]map[int32]uint64

	// meter, when attached, receives per-probe / per-function attribution
	// of every profiling-machinery cycle (see meter.go). Nil by default.
	meter *OverheadMeter

	// MaxSteps bounds a single Run (runaway-loop guard).
	MaxSteps uint64
}

// frame is one activation: where its registers start in the arena and where
// its return goes (address for the LBR and stack samples, index for the
// fetch; retIdx is -1 when the address is outside the text segment).
type frame struct {
	retAddr uint64
	base    int32
	retIdx  int32
	retDst  int32
}

// opcode is a decoded instruction's single dispatch key: machine.Kind with
// the ALU operator, the branch sense and the addressing mode folded in.
// Everything before opBranch is ordinary (falls through to the next index);
// opBranch through opStall end a straight-line run; the fused opcodes after
// opStall head a compare→branch sequence.
type opcode uint8

const (
	opConst opcode = iota
	opMove         // costs no BaseCPI: eliminated at rename
	opNot
	opNeg
	opAdd // opAdd+k is ir.BinKind k, in ir's order
	opSub
	opMul
	opDiv
	opRem
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opAnd
	opOr
	opXor
	opShl
	opShr
	opSelect
	opLoad     // scalar: imm is the wrapped global offset
	opLoadIdx  // imm + r[b], wrapped at run time
	opStore    // scalar
	opStoreIdx // indexed
	opCounter
	opBranch    // taken when r[a] != 0
	opBranchNot // taken when r[a] == 0
	opJump
	opCall
	opTailCall
	opICall
	opRet
	opStall // unknown machine.Kind: retires without moving, until MaxSteps

	// A compare followed by a branch on its destination: opEqBr+k is opEq+k,
	// the branch is the next index.
	opEqBr
	opNeBr
	opLtBr
	opLeBr
	opGtBr
	opGeBr
	// A const feeding the b (and not the a) of such a compare: opEqKBr+k
	// heads const, opEqBr+k, branch.
	opEqKBr
	opNeKBr
	opLtKBr
	opLeKBr
	opGtKBr
	opGeKBr
)

// unfused is what a fused head runs on its own: its compare, or its const.
func (op opcode) unfused() opcode {
	switch {
	case op >= opEqKBr:
		return opConst
	case op >= opEqBr:
		return opEq + (op - opEqBr)
	}
	return op
}

// dinstr is one decoded instruction (64 bytes against machine.Instr's 104).
// Which operands are meaningful depends on op:
//
//	const            dst, imm=value
//	move/not/neg     dst, a
//	add..shr         dst, a, b
//	select           dst, a, b, c
//	load/store       dst|a, imm=global offset, b=index register (Idx forms)
//	branch/jump      a, tgt, tgtAddr
//	call             dst, b=callee id, tgt, tgtAddr, c=return index, imm=return address
//	tailcall         b=callee id, tgt, tgtAddr
//	icall            dst, a, c=return index, imm=return address
//	ret              a (-1: returns 0)
//	counter          imm=counter id
//	eqBr..geBr       as the compare; the branch keeps its own record, next
//	eqKBr..geKBr     dst, imm=value, a=the compare's a, c=the compare's dst
//
// tgt and c are indices into code, resolved once at decode time from
// tgtAddr and the return address; -1 means the address is not an
// instruction start, which Run reports only after the transfer has retired.
//
// Call arguments stay in machine.Instr.ArgRegs.
//
// run, cost and nextLine describe the straight-line run from this index to
// the next transfer or stall, inclusive: how many instructions it holds,
// their fixed cycles (BaseCPI, none for a move, plus CounterCost for a
// counter), and the next index in it whose 64-byte line differs from its
// predecessor's (-1: none). Run charges all three once, at the run's head.
type dinstr struct {
	addr         uint64
	tgtAddr      uint64
	imm          int64
	cost         uint64
	dst, a, b, c int32
	tgt          int32
	run          int32
	nextLine     int32
	op           opcode
}

const (
	noLine = ^uint64(0)
	// exitPC is the next-pc of main's return.
	exitPC = -2
	// initialArena is the register arena's starting size; it doubles on
	// demand and is kept across runs.
	initialArena = 1024
)

// New creates a machine for prog with the given cost model and PMU config:
// Decode(prog, cost).New(pmuCfg). A caller that builds several machines
// over one binary and cost model decodes once and keeps the Code.
func New(prog *machine.Prog, cost CostParams, pmuCfg PMUConfig) *Machine {
	return Decode(prog, cost).New(pmuCfg)
}

// New creates a machine that runs c with the given PMU config, with its
// own globals, counters, register arena and PMU and, on a timed Code, its
// own i-cache, predictor table (every branch weakly taken) and BTB.
//
// The zero CostParams is the untimed machine: it charges nothing and models
// nothing, so New builds no i-cache, no branch predictor and no BTB, and Run
// skips their fetches and updates. Everything a sample, a counter or a
// return value depends on — the LBR, the sampling countdown and its jitter,
// skidded stack walks, counters, the value profile, globals — runs exactly
// as on a timed machine, because the PMU counts retired taken branches, not
// cycles. Its Stats are the timed machine's with Cycles, Mispredicts and
// ICacheMisses left at 0. Use it for runs whose only product is samples or
// counters.
func (c *Code) New(pmuCfg PMUConfig) *Machine {
	m := &Machine{
		Code:     c,
		pmu:      newPMU(pmuCfg),
		lastLine: noLine,
		arena:    make([]int64, initialArena),
		MaxSteps: 500_000_000,
	}
	m.Reset()
	if c.tailArgs > 0 {
		m.argTmp = make([]int64, c.tailArgs)
	}
	if c.Cost == (CostParams{}) {
		return m
	}
	instrs := c.Prog.Instrs
	if n := len(instrs); n > 0 {
		m.ic = newICache(c.Cost, instrs[0].Addr, instrs[n-1].Addr)
	}
	m.pred = make([]uint8, len(instrs))
	for i := range m.pred {
		m.pred[i] = 2 // weakly taken
	}
	if c.icall {
		m.btb = make([]int32, len(instrs))
		for i := range m.btb {
			m.btb[i] = -1
		}
	}
	return m
}

// Decode decodes prog for the cost model. Every address a transfer can name
// is turned into an instruction index here, so the run loop never searches;
// every index learns the straight-line run it starts (one backward pass)
// and compare→branch sequences are fused (one forward pass).
func Decode(prog *machine.Prog, cost CostParams) *Code {
	c := &Code{Prog: prog, Cost: cost}
	instrs := prog.Instrs
	idxOf := func(addr uint64) int32 {
		i := sort.Search(len(instrs), func(i int) bool { return instrs[i].Addr >= addr })
		if i < len(instrs) && instrs[i].Addr == addr {
			return int32(i)
		}
		return -1
	}
	c.entry = idxOf(prog.EntryAddr)
	c.funcEntry = make([]int32, len(prog.Funcs))
	for i, f := range prog.Funcs {
		c.funcEntry[i] = idxOf(f.Start)
	}
	code := make([]dinstr, len(instrs))
	c.code = code
	for i := range instrs {
		in := &instrs[i]
		d := &code[i]
		*d = dinstr{addr: in.Addr, tgtAddr: in.Target, dst: in.Dst, a: in.A, b: in.B, c: in.C, tgt: -1}
		switch in.Kind {
		case machine.KConst:
			d.op, d.imm = opConst, in.Value
		case machine.KOp:
			switch {
			case in.Op == ir.OpMove:
				d.op = opMove
			case in.Op == ir.OpNot:
				d.op = opNot
			case in.Op == ir.OpNeg:
				d.op = opNeg
			case in.Bin <= ir.BinShr:
				d.op = opAdd + opcode(in.Bin)
			default:
				d.op, d.imm = opConst, 0 // an unknown operator yields 0
			}
		case machine.KSelect:
			d.op = opSelect
		case machine.KLoad, machine.KStore:
			d.op, d.imm = opLoad, int64(in.GlobalOff)
			if in.Kind == machine.KStore {
				d.op = opStore
			}
			if in.Index >= 0 {
				d.op++ // the Idx form follows its scalar form
				d.b = in.Index
			} else {
				d.imm = wrap(d.imm, len(prog.GlobalInit))
			}
		case machine.KBranch:
			d.op, d.tgt = opBranch, idxOf(in.Target)
			if in.BranchNeg {
				d.op = opBranchNot
			}
		case machine.KJump:
			d.op, d.tgt = opJump, idxOf(in.Target)
		case machine.KCall, machine.KICall:
			ret := in.Addr + uint64(in.Size)
			d.op, d.imm, d.c = opICall, int64(ret), idxOf(ret)
			if in.Kind == machine.KCall {
				d.op, d.b, d.tgt = opCall, in.CalleeID, idxOf(in.Target)
			} else {
				c.icall = true
			}
		case machine.KTailCall:
			d.op, d.b, d.tgt = opTailCall, in.CalleeID, idxOf(in.Target)
			c.tailArgs = max(c.tailArgs, len(in.ArgRegs))
		case machine.KRet:
			d.op = opRet
		case machine.KCounter:
			d.op, d.imm = opCounter, int64(in.CounterID)
		default:
			d.op = opStall
		}
	}

	// Runs: an ordinary instruction's run is itself plus its successor's.
	// (The text's last instruction ends one whatever it is: running off the
	// end of the text was never defined, and still panics.)
	for i := len(code) - 1; i >= 0; i-- {
		d := &code[i]
		d.run, d.cost, d.nextLine = 1, cost.BaseCPI, -1
		switch d.op {
		case opMove:
			d.cost = 0
		case opCounter:
			d.cost += cost.CounterCost
		}
		if d.op >= opBranch || i == len(code)-1 {
			continue
		}
		next := &code[i+1]
		d.run += next.run
		d.cost += next.cost
		d.nextLine = next.nextLine
		if next.addr>>6 != d.addr>>6 {
			d.nextLine = int32(i + 1)
		}
	}

	// Fusion: every index keeps a record that runs on its own, so a branch
	// into the middle of a sequence runs its unfused suffix.
	for i := 0; i+1 < len(code); i++ {
		d, br := &code[i], &code[i+1]
		if d.op < opEq || d.op > opGe || br.op != opBranch && br.op != opBranchNot || br.a != d.dst {
			continue
		}
		k := d.op - opEq
		d.op = opEqBr + k
		if i == 0 {
			continue
		}
		if k0 := &code[i-1]; k0.op == opConst && k0.dst == d.b && k0.dst != d.a {
			k0.op, k0.a, k0.c = opEqKBr+k, d.a, d.dst
		}
	}
	return c
}

// Reset restores globals and counters to the program image.
func (m *Machine) Reset() {
	m.globals = append([]int64(nil), m.Prog.GlobalInit...)
	m.counters = make([]uint64, m.Prog.NumCounters)
	m.frames = m.frames[:0]
}

// Stats returns accumulated statistics.
func (m *Machine) Stats() Stats { return m.stats }

// Counters returns the instrumentation counter values.
func (m *Machine) Counters() []uint64 { return m.counters }

// Samples returns PMU samples collected so far.
func (m *Machine) Samples() []Sample { return m.pmu.samples }

// ValueProfile returns exact indirect-call target counts per call-site
// address (instrumented binaries only; nil otherwise).
func (m *Machine) ValueProfile() map[uint64]map[int32]uint64 { return m.vprof }

// errStepLimit is returned when a run exceeds MaxSteps.
var errStepLimit = errors.New("sim: step limit exceeded")

var errUnmapped = errors.New("sim: jump to unmapped address")

// predNext is the 2-bit branch predictor's transition table: entry i, at
// bits 2i, is the next counter for i = counter<<1 | taken. A taken branch
// moves the counter up and a not-taken one down, saturating at 0 and 3.
const predNext uint16 = 3<<14 | 2<<12 | 3<<10 | 1<<8 | 2<<6 | 0<<4 | 1<<2 | 0

// valueProfileCost is the per-indirect-call bookkeeping charge on
// instrumented binaries (hash + histogram RMW).
const valueProfileCost = 8

// stackSnapshot builds a frame-pointer walk into the machine's reusable
// buffer: leaf PC first, then each frame's return address outward.
func (m *Machine) stackSnapshot(leafPC uint64) {
	s := append(m.snap[:0], leafPC)
	for i := len(m.frames) - 1; i >= 1; i-- {
		s = append(s, m.frames[i].retAddr)
	}
	m.snap = s
}

// skidding reports whether the taken branch about to retire will be sampled
// without PEBS. Its sample carries the stack from just before the branch —
// the one-frame skid across calls and returns the paper observed — so every
// transfer asks this before its frame effect and, if so, walks the stack
// then, from leafPC.
func (m *Machine) skidding() bool {
	p := m.pmu
	return !p.cfg.PEBS && p.countdown == 1 && p.cfg.SamplePeriod != 0
}

// sample takes the synchronized sample the branch just recorded in the LBR
// triggered, after the branch's frame effect. With PEBS the stack is walked
// now, from the branch target; without, m.snap already holds the pre-branch
// walk (see skidding).
func (m *Machine) sample(to uint64) {
	p := m.pmu
	m.stats.Samples++
	if p.cfg.PEBS {
		m.stackSnapshot(to)
	}
	p.takeSample(m.snap)
	walked := 0 // LBR-only sampling captures no stack
	if p.cfg.SampleStacks {
		walked = len(m.snap)
	}
	m.sampleTaken(m.snap[0], walked)
}

// newRegs carves an n-register file out of the arena at m.sp, growing the
// arena if it must. Growth copies, so register slices handed out earlier
// keep reading their old values; every one still in use after a call is
// re-derived from the arena (see ret). The file is not zeroed.
func (m *Machine) newRegs(n int) []int64 {
	base := m.sp
	m.sp += n
	if m.sp > len(m.arena) {
		grown := make([]int64, max(2*len(m.arena), m.sp))
		copy(grown, m.arena[:base])
		m.arena = grown
	}
	return m.arena[base:m.sp:m.sp]
}

// call retires a direct or indirect call at pc: charges it, trains the BTB
// and the value profile for an indirect one, and pushes the callee's frame
// with its arguments copied from the caller's registers r. It returns the
// callee's register file and where the transfer goes.
func (m *Machine) call(d *dinstr, pc int, r []int64) (regs []int64, to uint64, npc int) {
	argRegs := m.Prog.Instrs[pc].ArgRegs
	m.stats.Calls++
	m.stats.Cycles += m.Cost.CallOverhead + m.Cost.ArgCost*uint64(len(argRegs))
	nargs := len(argRegs)
	var callee *machine.Func
	if d.op == opCall {
		callee = m.Prog.Funcs[d.b]
		to, npc = d.tgtAddr, int(d.tgt)
	} else {
		m.stats.IndirectCalls++
		id := int32(wrap(r[d.a], len(m.Prog.Funcs)))
		callee = m.Prog.Funcs[id]
		to, npc = callee.Start, int(m.funcEntry[id])
		nargs = min(nargs, int(callee.NumParams))
		// Indirect calls pay an extra indirect-branch bubble, and a full
		// mispredict when the BTB's last-target guess is wrong; the untimed
		// machine (no i-cache, no BTB) charges neither.
		if m.ic != nil {
			m.stats.Cycles += 2
			if last := m.btb[pc]; last != id {
				if last >= 0 {
					m.stats.Mispredicts++
					m.stats.Cycles += m.Cost.Mispredict
				}
				m.btb[pc] = id
			}
		}
		if m.Prog.Instrumented {
			m.profileValue(d.addr, id)
		}
	}
	if m.skidding() {
		m.stackSnapshot(d.addr)
	}
	base := m.sp
	regs = m.newRegs(int(callee.NumRegs))
	for i, a := range argRegs[:nargs] {
		regs[i] = r[a]
	}
	clear(regs[nargs:])
	m.frames = append(m.frames, frame{retAddr: uint64(d.imm), base: int32(base), retIdx: d.c, retDst: d.dst})
	return regs, to, npc
}

// tailCall retires a frame-reusing call: return address and destination are
// inherited and the register file is rebuilt where it stands, whatever the
// callee's size. Arguments pass through argTmp, so one whose register is
// overwritten early is still read intact.
func (m *Machine) tailCall(d *dinstr, pc int, r []int64) []int64 {
	argRegs := m.Prog.Instrs[pc].ArgRegs
	m.stats.Calls++
	m.stats.Cycles += m.Cost.ArgCost * uint64(len(argRegs))
	if m.skidding() {
		m.stackSnapshot(d.addr)
	}
	tmp := m.argTmp[:len(argRegs)]
	for i, a := range argRegs {
		tmp[i] = r[a]
	}
	m.sp = int(m.frames[len(m.frames)-1].base)
	r = m.newRegs(int(m.Prog.Funcs[d.b].NumRegs))
	clear(r[copy(r[:len(tmp)], tmp):])
	return r
}

// ret retires a return: it pops the frame, delivers the value to the
// caller's destination register and hands back the caller's register file.
// Main's return leaves its frame in place (the exit branch's sample still
// sees it) and goes to exitPC.
func (m *Machine) ret(d *dinstr, r []int64) (regs []int64, to uint64, npc int) {
	m.stats.Returns++
	m.stats.Cycles += m.Cost.RetOverhead
	m.retVal = 0
	if d.a >= 0 {
		m.retVal = r[d.a]
	}
	if m.skidding() {
		m.stackSnapshot(d.addr)
	}
	top := len(m.frames) - 1
	popped := m.frames[top]
	if top == 0 {
		return r, popped.retAddr, exitPC
	}
	m.frames = m.frames[:top]
	m.sp = int(popped.base)
	regs = m.arena[m.frames[top-1].base:m.sp]
	if popped.retDst >= 0 {
		regs[popped.retDst] = m.retVal
	}
	return regs, popped.retAddr, int(popped.retIdx)
}

// profileValue records one indirect call on an instrumented binary: the
// per-site target histogram (costly RMW + hashing, the instrumentation-PGO
// price; the untimed machine records it for free).
func (m *Machine) profileValue(site uint64, callee int32) {
	var cost uint64
	if m.ic != nil {
		cost = valueProfileCost
	}
	m.stats.Cycles += cost
	if m.meter != nil {
		m.meter.VProfHits[site]++
		m.meter.VProfCycles += cost
	}
	if m.vprof == nil {
		m.vprof = map[uint64]map[int32]uint64{}
	}
	t := m.vprof[site]
	if t == nil {
		t = map[int32]uint64{}
		m.vprof[site] = t
	}
	t[callee]++
}

// Run executes main(args...) to completion and returns its result.
//
// The loop keeps in locals only what it touches constantly — the decoded
// stream, pc, the current register file, the step budget, the i-cache line
// of the last fetch and a cycle delta — so that they stay in machine
// registers; frames, the arena and the PMU live in the Machine and are
// reached through the call/tailCall/ret helpers and the taken-branch tail.
// Retired instructions are what is gone from the step budget; cycles is
// added to Stats.Cycles on the way out, which is sound because everything
// else that touches Stats.Cycles (the helpers, the sampling interrupt) only
// ever adds to it.
//
// Bookkeeping is paid once per straight-line run, at its head: the whole
// run comes off the budget, its fixed cycles are added, and its line
// changes are fetched through the i-cache (see dinstr), which the untimed
// machine skips, as it skips the predictor (see New). That is exact
// because nothing reads the cache, Stats or the cycle delta before the
// run's last instruction, and the fetches happen in the order the
// instructions would have made them. A run the budget cuts short is
// retired one instruction at a time by retirePrefix instead.
//
// The ops of a run then execute with nothing else to do: ordinary ones end
// in `continue`; a conditional branch, alone or at the end of a fused
// sequence, falls out of the switch with its condition in cond; the other
// transfers leave the inner loop with to and npc set, as a taken branch
// does, and share the tail below it, where the branch is charged, recorded
// in the LBR and counted towards the next sample. An unmapped target
// (npc < 0) becomes an error only there, after the branch has retired.
func (m *Machine) Run(args ...int64) (int64, error) {
	entryFn := m.Prog.FuncByName["main"]
	if entryFn == nil {
		return 0, fmt.Errorf("sim: binary has no main")
	}
	if m.entry < 0 {
		return 0, fmt.Errorf("sim: bad entry address %#x", m.Prog.EntryAddr)
	}
	m.frames = append(m.frames[:0], frame{retDst: -1})
	m.sp = 0
	r := m.newRegs(int(entryFn.NumRegs))
	clear(r)
	for i, a := range args {
		if i < int(entryFn.NumParams) {
			r[i] = a
		}
	}
	var (
		code     = m.code
		pc       = int(m.entry)
		budget   = m.MaxSteps
		lastLine = m.lastLine
		cycles   uint64
		err      error
	)
run:
	for {
		d := &code[pc]
		if budget < uint64(d.run) {
			cycles += m.retirePrefix(pc, int(budget), r, &lastLine)
			budget = 0
			err = errStepLimit
			break
		}
		budget -= uint64(d.run)
		cycles += d.cost
		if m.ic != nil {
			fetch := d.nextLine
			if d.addr>>6 != lastLine {
				fetch = int32(pc)
			}
			for fetch >= 0 {
				f := &code[fetch]
				lastLine = f.addr >> 6
				if !m.ic.hit(f.addr) {
					m.ic.fill(f.addr)
					m.stats.ICacheMisses++
					cycles += m.Cost.ICacheMiss
				}
				fetch = f.nextLine
			}
		}

		var (
			from, to uint64
			npc      int
			cond     int64
		)
	exec:
		for {
			d = &code[pc]
			switch d.op {
			case opConst:
				r[d.dst] = d.imm
				pc++
				continue
			case opMove:
				// Register-register moves are eliminated at rename on modern
				// cores; they occupy an instruction slot but no execution
				// cycle (their run's cost leaves BaseCPI out).
				r[d.dst] = r[d.a]
				pc++
				continue
			case opNot:
				r[d.dst] = b2i(r[d.a] == 0)
				pc++
				continue
			case opNeg:
				r[d.dst] = -r[d.a]
				pc++
				continue
			case opAdd:
				r[d.dst] = r[d.a] + r[d.b]
				pc++
				continue
			case opSub:
				r[d.dst] = r[d.a] - r[d.b]
				pc++
				continue
			case opMul:
				r[d.dst] = r[d.a] * r[d.b]
				pc++
				continue
			case opDiv:
				var v int64
				if b := r[d.b]; b != 0 {
					v = r[d.a] / b
				}
				r[d.dst] = v
				pc++
				continue
			case opRem:
				var v int64
				if b := r[d.b]; b != 0 {
					v = r[d.a] % b
				}
				r[d.dst] = v
				pc++
				continue
			case opEq:
				r[d.dst] = b2i(r[d.a] == r[d.b])
				pc++
				continue
			case opNe:
				r[d.dst] = b2i(r[d.a] != r[d.b])
				pc++
				continue
			case opLt:
				r[d.dst] = b2i(r[d.a] < r[d.b])
				pc++
				continue
			case opLe:
				r[d.dst] = b2i(r[d.a] <= r[d.b])
				pc++
				continue
			case opGt:
				r[d.dst] = b2i(r[d.a] > r[d.b])
				pc++
				continue
			case opGe:
				r[d.dst] = b2i(r[d.a] >= r[d.b])
				pc++
				continue
			case opAnd:
				r[d.dst] = r[d.a] & r[d.b]
				pc++
				continue
			case opOr:
				r[d.dst] = r[d.a] | r[d.b]
				pc++
				continue
			case opXor:
				r[d.dst] = r[d.a] ^ r[d.b]
				pc++
				continue
			case opShl:
				r[d.dst] = r[d.a] << (uint64(r[d.b]) & 63)
				pc++
				continue
			case opShr:
				r[d.dst] = r[d.a] >> (uint64(r[d.b]) & 63)
				pc++
				continue
			case opSelect:
				if r[d.a] != 0 {
					r[d.dst] = r[d.b]
				} else {
					r[d.dst] = r[d.c]
				}
				pc++
				continue
			case opLoad:
				r[d.dst] = m.globals[d.imm]
				pc++
				continue
			case opLoadIdx:
				r[d.dst] = m.globals[wrap(d.imm+r[d.b], len(m.globals))]
				pc++
				continue
			case opStore:
				m.globals[d.imm] = r[d.a]
				pc++
				continue
			case opStoreIdx:
				m.globals[wrap(d.imm+r[d.b], len(m.globals))] = r[d.a]
				pc++
				continue
			case opCounter:
				m.counters[d.imm]++
				if m.meter != nil {
					m.meter.ProbeHits[int32(d.imm)]++
					m.meter.ProbeCycles += m.Cost.CounterCost
				}
				pc++
				continue

			case opEqBr:
				cond = b2i(r[d.a] == r[d.b])
				r[d.dst] = cond
				pc++
			case opNeBr:
				cond = b2i(r[d.a] != r[d.b])
				r[d.dst] = cond
				pc++
			case opLtBr:
				cond = b2i(r[d.a] < r[d.b])
				r[d.dst] = cond
				pc++
			case opLeBr:
				cond = b2i(r[d.a] <= r[d.b])
				r[d.dst] = cond
				pc++
			case opGtBr:
				cond = b2i(r[d.a] > r[d.b])
				r[d.dst] = cond
				pc++
			case opGeBr:
				cond = b2i(r[d.a] >= r[d.b])
				r[d.dst] = cond
				pc++
			case opEqKBr:
				r[d.dst] = d.imm
				cond = b2i(r[d.a] == d.imm)
				r[d.c] = cond
				pc += 2
			case opNeKBr:
				r[d.dst] = d.imm
				cond = b2i(r[d.a] != d.imm)
				r[d.c] = cond
				pc += 2
			case opLtKBr:
				r[d.dst] = d.imm
				cond = b2i(r[d.a] < d.imm)
				r[d.c] = cond
				pc += 2
			case opLeKBr:
				r[d.dst] = d.imm
				cond = b2i(r[d.a] <= d.imm)
				r[d.c] = cond
				pc += 2
			case opGtKBr:
				r[d.dst] = d.imm
				cond = b2i(r[d.a] > d.imm)
				r[d.c] = cond
				pc += 2
			case opGeKBr:
				r[d.dst] = d.imm
				cond = b2i(r[d.a] >= d.imm)
				r[d.c] = cond
				pc += 2
			case opBranch, opBranchNot:
				cond = r[d.a]

			case opJump:
				from, to, npc = d.addr, d.tgtAddr, int(d.tgt)
				if m.skidding() {
					m.stackSnapshot(from + uint64(m.Prog.Instrs[pc].Size))
				}
				break exec
			case opCall, opICall:
				from = d.addr
				r, to, npc = m.call(d, pc, r)
				break exec
			case opTailCall:
				from, to, npc = d.addr, d.tgtAddr, int(d.tgt)
				r = m.tailCall(d, pc, r)
				break exec
			case opRet:
				from = d.addr
				r, to, npc = m.ret(d, r)
				break exec
			default: // opStall: retires in place, one BaseCPI a step
				cycles += budget * m.Cost.BaseCPI
				budget = 0
				err = errStepLimit
				break run
			}

			// The conditional branch at pc, on cond. A fused sequence trains
			// the predictor, and walks a skidded stack, at the branch's own
			// index and address, exactly as the branch alone does. The
			// predictor update is branchless: the counter moves through
			// predNext, and it mispredicted when its high bit (predict
			// taken) differs from the outcome.
			d = &code[pc]
			m.stats.CondBranches++
			taken := (cond != 0) == (d.op == opBranch)
			if pred := m.pred; pred != nil {
				var t uint8
				if taken {
					t = 1
				}
				c := pred[pc]
				pred[pc] = uint8(predNext >> ((c<<1 | t) << 1 & 15) & 3)
				miss := uint64(c>>1 ^ t)
				m.stats.Mispredicts += miss
				cycles += miss * m.Cost.Mispredict
			}
			if !taken {
				pc++
				continue run
			}
			from, to, npc = d.addr, d.tgtAddr, int(d.tgt)
			if m.skidding() {
				m.stackSnapshot(from + uint64(m.Prog.Instrs[pc].Size))
			}
			break
		}

		m.stats.TakenBranches++
		cycles += m.Cost.TakenBranch
		if p := m.pmu; p.recordBranch(from, to) && p.rearm() {
			m.sample(to)
		}
		if npc < 0 {
			if npc != exitPC {
				err = errUnmapped
			}
			break
		}
		pc = npc
	}

	m.stats.Cycles += cycles
	m.stats.Instructions += m.MaxSteps - budget
	m.lastLine = lastLine
	m.frames = m.frames[:0]
	if err != nil {
		return 0, err
	}
	return m.retVal, nil
}

// retirePrefix retires the first k instructions of the run at pc, where the
// step budget ends: k < code[pc].run, so all of them are ordinary. It does
// one at a time what Run does for a whole run — fetch on each line change,
// execute every op, stores, counters and the meter included — and returns
// their cycles, the prefix's share of the run's fixed cost plus its misses.
func (m *Machine) retirePrefix(pc, k int, r []int64, lastLine *uint64) uint64 {
	code := m.code
	cycles := code[pc].cost - code[pc+k].cost
	for i := pc; i < pc+k; i++ {
		d := &code[i]
		if line := d.addr >> 6; m.ic != nil && line != *lastLine {
			*lastLine = line
			if !m.ic.hit(d.addr) {
				m.ic.fill(d.addr)
				m.stats.ICacheMisses++
				cycles += m.Cost.ICacheMiss
			}
		}
		switch op := d.op.unfused(); op {
		case opConst:
			r[d.dst] = d.imm
		case opMove:
			r[d.dst] = r[d.a]
		case opNot:
			r[d.dst] = b2i(r[d.a] == 0)
		case opNeg:
			r[d.dst] = -r[d.a]
		case opSelect:
			if r[d.a] != 0 {
				r[d.dst] = r[d.b]
			} else {
				r[d.dst] = r[d.c]
			}
		case opLoad:
			r[d.dst] = m.globals[d.imm]
		case opLoadIdx:
			r[d.dst] = m.globals[wrap(d.imm+r[d.b], len(m.globals))]
		case opStore:
			m.globals[d.imm] = r[d.a]
		case opStoreIdx:
			m.globals[wrap(d.imm+r[d.b], len(m.globals))] = r[d.a]
		case opCounter:
			m.counters[d.imm]++
			if m.meter != nil {
				m.meter.ProbeHits[int32(d.imm)]++
				m.meter.ProbeCycles += m.Cost.CounterCost
			}
		default: // opAdd..opShr
			r[d.dst] = binop(op, r[d.a], r[d.b])
		}
	}
	return cycles
}

// binop is Run's arithmetic for the slow path.
func binop(op opcode, x, y int64) int64 {
	switch op {
	case opAdd:
		return x + y
	case opSub:
		return x - y
	case opMul:
		return x * y
	case opDiv:
		if y == 0 {
			return 0
		}
		return x / y
	case opRem:
		if y == 0 {
			return 0
		}
		return x % y
	case opEq:
		return b2i(x == y)
	case opNe:
		return b2i(x != y)
	case opLt:
		return b2i(x < y)
	case opLe:
		return b2i(x <= y)
	case opGt:
		return b2i(x > y)
	case opGe:
		return b2i(x >= y)
	case opAnd:
		return x & y
	case opOr:
		return x | y
	case opXor:
		return x ^ y
	case opShl:
		return x << (uint64(y) & 63)
	default: // opShr
		return x >> (uint64(y) & 63)
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func wrap(off int64, n int) int64 {
	if uint64(off) < uint64(n) {
		return off
	}
	if n == 0 {
		return 0
	}
	off %= int64(n)
	if off < 0 {
		off += int64(n)
	}
	return off
}
