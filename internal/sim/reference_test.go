package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"

	"csspgo/internal/ir"
	"csspgo/internal/machine"
)

// The reference: decode and Run as they stood at d26cf6a, one budget check,
// line compare and cycle add per instruction and one dispatch per
// instruction, kept verbatim (renamed refDecode and refRun) so that
// TestRunMatchesReference can hold the run-at-a-time loop to every
// observable on the golden matrix and on generated machine programs. They
// share the call/tailCall/ret/sample helpers with Run.

// refDecode builds m.code from m.Prog. Every address a transfer can name is
// turned into an instruction index here, so the run loop never searches.
func (m *Machine) refDecode() {
	instrs := m.Prog.Instrs
	if n := len(instrs); n > 0 {
		m.ic = newICache(m.Cost, instrs[0].Addr, instrs[n-1].Addr)
	}
	idxOf := func(addr uint64) int32 {
		i := sort.Search(len(instrs), func(i int) bool { return instrs[i].Addr >= addr })
		if i < len(instrs) && instrs[i].Addr == addr {
			return int32(i)
		}
		return -1
	}
	m.entry = idxOf(m.Prog.EntryAddr)
	m.funcEntry = make([]int32, len(m.Prog.Funcs))
	for i, f := range m.Prog.Funcs {
		m.funcEntry[i] = idxOf(f.Start)
	}
	m.code = make([]dinstr, len(instrs))
	m.pred = make([]uint8, len(instrs))
	for i := range m.pred {
		m.pred[i] = 2 // weakly taken
	}
	for i := range instrs {
		in := &instrs[i]
		d := &m.code[i]
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
				d.imm = wrap(d.imm, len(m.globals))
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
			} else if m.btb == nil {
				m.btb = make([]int32, len(instrs))
				for j := range m.btb {
					m.btb[j] = -1
				}
			}
		case machine.KTailCall:
			d.op, d.b, d.tgt = opTailCall, in.CalleeID, idxOf(in.Target)
			if len(in.ArgRegs) > len(m.argTmp) {
				m.argTmp = make([]int64, len(in.ArgRegs))
			}
		case machine.KRet:
			d.op = opRet
		case machine.KCounter:
			d.op, d.imm = opCounter, int64(in.CounterID)
		default:
			d.op = opStall
		}
	}
}

// refRun executes main(args...) to completion and returns its result.
//
// The loop keeps only what every instruction touches in locals — the decoded
// stream, pc, the current register file, the step budget, the i-cache line
// of the last fetch and a cycle delta — so that they stay in machine
// registers; frames, the arena and the PMU live in the Machine and are
// reached through the call/tailCall/ret helpers and the taken-branch tail.
// Retired instructions are what is gone from the step budget; cycles is
// added to Stats.Cycles on the way out, which is sound because everything
// else that touches Stats.Cycles (the helpers, the sampling interrupt) only
// ever adds to it.
//
// Ordinary instructions end in `continue`; the six transfer kinds fall out
// of the switch with to and npc set and share the tail below it, where the
// branch is charged, recorded in the LBR and counted towards the next
// sample. An unmapped target (npc < 0) becomes an error only there, after
// the branch has retired.
func (m *Machine) refRun(args ...int64) (int64, error) {
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
	for {
		if budget == 0 {
			err = errStepLimit
			break
		}
		budget--
		d := &code[pc]

		// Instruction fetch: charge i-cache on line changes.
		if line := d.addr >> 6; line != lastLine {
			lastLine = line
			if !m.ic.hit(d.addr) {
				m.ic.fill(d.addr)
				m.stats.ICacheMisses++
				cycles += m.Cost.ICacheMiss
			}
		}
		cycles += m.Cost.BaseCPI

		var to uint64
		var npc int
		switch d.op {
		case opConst:
			r[d.dst] = d.imm
			pc++
			continue
		case opMove:
			// Register-register moves are eliminated at rename on modern
			// cores; they occupy an instruction slot but no execution cycle.
			cycles -= m.Cost.BaseCPI
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
			cycles += m.Cost.CounterCost
			if m.meter != nil {
				m.meter.ProbeHits[int32(d.imm)]++
				m.meter.ProbeCycles += m.Cost.CounterCost
			}
			pc++
			continue
		default: // opStall
			continue

		case opBranch, opBranchNot:
			m.stats.CondBranches++
			taken := (r[d.a] != 0) == (d.op == opBranch)
			c := m.pred[pc]
			predictTaken := c >= 2
			if taken && c < 3 {
				c++
			} else if !taken && c > 0 {
				c--
			}
			m.pred[pc] = c
			if predictTaken != taken {
				m.stats.Mispredicts++
				cycles += m.Cost.Mispredict
			}
			if !taken {
				pc++
				continue
			}
			if m.skidding() {
				m.stackSnapshot(d.addr + uint64(m.Prog.Instrs[pc].Size))
			}
			to, npc = d.tgtAddr, int(d.tgt)
		case opJump:
			if m.skidding() {
				m.stackSnapshot(d.addr + uint64(m.Prog.Instrs[pc].Size))
			}
			to, npc = d.tgtAddr, int(d.tgt)
		case opCall, opICall:
			r, to, npc = m.call(d, pc, r)
		case opTailCall:
			r = m.tailCall(d, pc, r)
			to, npc = d.tgtAddr, int(d.tgt)
		case opRet:
			r, to, npc = m.ret(d, r)
		}

		m.stats.TakenBranches++
		cycles += m.Cost.TakenBranch
		if p := m.pmu; p.recordBranch(d.addr, to) && p.rearm() {
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

// NewReference is New with the reference decoder: RunReference on it runs
// the per-instruction loop above. refDecode rewrites the machine's Code in
// place, which only this machine runs: New decoded it for this call alone.
// Exported for the golden-matrix half of
// TestRunMatchesReference, which lives in package sim_test with the golden
// helpers (it builds binaries through pgo, which imports sim).
func NewReference(prog *machine.Prog, cost CostParams, pmuCfg PMUConfig) *Machine {
	m := New(prog, cost, pmuCfg)
	m.refDecode()
	return m
}

// RunReference is refRun on a machine made by NewReference.
func (m *Machine) RunReference(args ...int64) (int64, error) { return m.refRun(args...) }

// StateDiff describes the first observable in which got differs from want
// — Stats, globals, counters, value profile, the sample stream (from sample
// `from` on; earlier ones were compared before), the meter — and the
// machine state behind them: the register files the run left (what an
// aborted run wrote last), and what the next request starts from
// (predictor, BTB, i-cache, LBR, sampling countdown, last fetched line);
// "" when they agree.
func StateDiff(got, want *Machine, from int) string {
	if got.stats != want.stats {
		return fmt.Sprintf("stats\n got  %+v\n want %+v", got.stats, want.stats)
	}
	return firstDiff(append(untimedState(got, want, from, got.meter, want.meter),
		observable{"predictor", got.pred, want.pred},
		observable{"btb", got.btb, want.btb},
		observable{"i-cache", *got.ic, *want.ic},
		observable{"last line", got.lastLine, want.lastLine}))
}

// UntimedDiff is StateDiff for an untimed machine got (CostParams{}) that
// ran beside a timed machine want: Stats but for Cycles, Mispredicts and
// ICacheMisses, which got must leave at 0, the meter but for its cycle
// tallies, which got must leave at 0 too, and no timing state, which got
// must not hold.
func UntimedDiff(got, want *Machine, from int) string {
	if got.ic != nil || got.pred != nil || got.btb != nil {
		return "the untimed machine built a timing model"
	}
	ws := want.stats
	ws.Cycles, ws.Mispredicts, ws.ICacheMisses = 0, 0, 0
	if got.stats != ws {
		return fmt.Sprintf("stats\n got  %+v\n want %+v", got.stats, want.stats)
	}
	var gm, wm OverheadMeter
	if want.meter != nil {
		gm, wm = *got.meter, *want.meter
		wm.ProbeCycles, wm.SampleCycles, wm.VProfCycles = 0, 0, 0
	}
	return firstDiff(untimedState(got, want, from, gm, wm))
}

// observable is one piece of state two machines are compared on.
type observable struct {
	name      string
	got, want any
}

// untimedState is the state a run leaves that the timing model does not
// write, with the meters to compare given apart.
func untimedState(got, want *Machine, from int, gotMeter, wantMeter any) []observable {
	return []observable{
		{"globals", got.globals, want.globals},
		{"registers", got.arena[:got.sp], want.arena[:want.sp]},
		{"counters", got.counters, want.counters},
		{"value profile", got.vprof, want.vprof},
		{"meter", gotMeter, wantMeter},
		{"samples", got.pmu.samples[min(from, len(got.pmu.samples)):], want.pmu.samples[min(from, len(want.pmu.samples)):]},
		{"lbr", got.pmu.lbr, want.pmu.lbr},
		{"pmu", [4]uint64{uint64(got.pmu.lbrPos), b2u(got.pmu.lbrFull), got.pmu.countdown, got.pmu.rng},
			[4]uint64{uint64(want.pmu.lbrPos), b2u(want.pmu.lbrFull), want.pmu.countdown, want.pmu.rng}},
	}
}

// firstDiff describes the first observable whose two sides differ; "" when
// none does.
func firstDiff(obs []observable) string {
	for _, c := range obs {
		if !reflect.DeepEqual(c.got, c.want) {
			return fmt.Sprintf("%s\n got  %v\n want %v", c.name, c.got, c.want)
		}
	}
	return ""
}

func b2u(b bool) uint64 { return uint64(b2i(b)) }

// RefCase is one generated machine program with its requests and step
// limit.
type RefCase struct {
	Prog     *machine.Prog
	Reqs     [][]int64
	MaxSteps uint64
	PMU      PMUConfig
	Cost     CostParams
	Meter    bool
}

// GenRefCase builds a random machine program from seed with edge_test.go's
// link/asmFunc: every opcode, compare→branch on the compare's destination
// and on another register, a const feeding the compare's b, its a or both,
// branches and jumps landing on the middle of those pairs and triples,
// straight-line runs spanning several i-cache lines, direct, indirect and
// tail calls, unknown Kinds (a stall), now and then an unmapped target, and
// a step limit anywhere from 1 to a few thousand.
func GenRefCase(seed int64) RefCase {
	rng := rand.New(rand.NewSource(seed))
	g := &refGen{rng: rng, nfn: 1 + rng.Intn(4)}
	for f := 0; f < g.nfn; f++ {
		g.regs = append(g.regs, int32(2+rng.Intn(7)))
		g.params = append(g.params, int32(rng.Intn(int(g.regs[f])+1)))
	}
	fns := make([]asmFunc, g.nfn)
	for f := range fns {
		name := fmt.Sprintf("f%d", f)
		if f == 0 {
			name = "main"
		}
		fns[f] = asmFunc{name: name, regs: g.regs[f], params: g.params[f], body: g.body(f)}
	}
	p := link(fns...)
	p.GlobalInit = make([]int64, 1+rng.Intn(6))
	for i := range p.GlobalInit {
		p.GlobalInit[i] = rng.Int63n(200) - 100
	}
	p.NumCounters = g.counters
	// Unknown Kinds and unmapped targets are patched in after link, which
	// sizes instructions by kind and resolves targets as body indices.
	if rng.Intn(4) == 0 {
		p.Instrs[rng.Intn(len(p.Instrs))].Kind = machine.KCounter + 1 + machine.Kind(rng.Intn(3))
	}
	if rng.Intn(4) == 0 {
		for _, i := range rng.Perm(len(p.Instrs)) {
			if in := &p.Instrs[i]; in.Kind == machine.KBranch || in.Kind == machine.KJump || in.Kind == machine.KCall || in.Kind == machine.KTailCall {
				in.Target = in.Addr + 1 // inside a ≥ 2-byte instruction: not an instruction start
				break
			}
		}
	}
	c := RefCase{Prog: p, Cost: DefaultCostParams()}
	switch rng.Intn(4) {
	case 0:
		c.MaxSteps = 1 + uint64(rng.Intn(40))
	case 1:
		c.MaxSteps = 1 + uint64(rng.Intn(400))
	default:
		c.MaxSteps = 1 + uint64(rng.Intn(4000))
	}
	switch rng.Intn(4) {
	case 0:
	case 1:
		c.PMU = DefaultPMUConfig(1 + uint64(rng.Intn(12)))
	case 2:
		c.PMU = DefaultPMUConfig(1 + uint64(rng.Intn(12)))
		c.PMU.PEBS = false
	default:
		c.PMU = DefaultPMUConfig(1 + uint64(rng.Intn(12)))
		c.Cost = ProfilingCostParams()
		c.Meter = true
	}
	if rng.Intn(3) == 0 {
		c.Cost.ICacheBytes = 256 // a few sets: misses and evictions within one run
	}
	if rng.Intn(3) == 0 { // no cost is 1 by accident
		c.Cost.BaseCPI = 2 + uint64(rng.Intn(3))
		c.Cost.CounterCost = 3 + uint64(rng.Intn(5))
		c.Cost.TakenBranch = 2 + uint64(rng.Intn(3))
		c.Cost.ICacheMiss = 7 + uint64(rng.Intn(20))
	}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		c.Reqs = append(c.Reqs, []int64{rng.Int63n(21) - 10, rng.Int63n(21) - 10, rng.Int63n(1000)})
	}
	return c
}

// refGen generates function bodies. Registers are drawn from the
// function's own file, call arguments never outnumber the callee's
// parameters, and every body ends in a transfer that does not fall through
// (ret, jump or tail call), so execution never runs off the end of the text.
type refGen struct {
	rng      *rand.Rand
	nfn      int
	regs     []int32
	params   []int32
	counters int32
}

func (g *refGen) reg(f int) int32 { return int32(g.rng.Intn(int(g.regs[f]))) }

func (g *refGen) imm() int64 {
	switch g.rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return -1
	case 3:
		return g.rng.Int63() - g.rng.Int63()
	default:
		return g.rng.Int63n(16) - 4
	}
}

var refCmps = []ir.BinKind{ir.BinEq, ir.BinNe, ir.BinLt, ir.BinLe, ir.BinGt, ir.BinGe}

// body returns function f's instructions; branch and jump Targets are body
// indices (link resolves them), drawn once the body's length is known.
func (g *refGen) body(f int) []machine.Instr {
	rng := g.rng
	var body []machine.Instr
	var mids []int       // indices inside compare→branch sequences
	var untargeted []int // branches and jumps still without a Target
	emit := func(in machine.Instr) {
		if in.Kind == machine.KBranch || in.Kind == machine.KJump {
			untargeted = append(untargeted, len(body))
		}
		body = append(body, in)
	}
	branch := func(cond int32) machine.Instr {
		return machine.Instr{Kind: machine.KBranch, A: cond, BranchNeg: rng.Intn(2) == 0}
	}
	for n := 4 + rng.Intn(40); len(body) < n; {
		switch k := rng.Intn(24); {
		case k < 5: // compare → branch, the fusable shapes and their near misses
			cmp := kbin(refCmps[rng.Intn(len(refCmps))], g.reg(f), g.reg(f), g.reg(f))
			start := len(body)
			switch rng.Intn(5) {
			case 0, 1: // const feeding b
				cmp.B = g.reg(f)
				emit(kconst(cmp.B, g.imm()))
				if rng.Intn(3) == 0 {
					cmp.A = cmp.B // feeding a and b: not the KBr shape
				}
			case 2: // const feeding a
				cmp.A = g.reg(f)
				emit(kconst(cmp.A, g.imm()))
			}
			emit(cmp)
			cond := cmp.Dst
			if rng.Intn(5) == 0 {
				cond = g.reg(f) // a branch on some other register
			}
			emit(branch(cond))
			for i := start + 1; i < len(body); i++ {
				mids = append(mids, i)
			}
		case k < 7:
			emit(branch(g.reg(f)))
		case k < 8:
			emit(machine.Instr{Kind: machine.KJump})
		case k < 10:
			emit(kconst(g.reg(f), g.imm()))
		case k < 14:
			emit(kbin(ir.BinKind(rng.Intn(int(ir.BinShr)+1)), g.reg(f), g.reg(f), g.reg(f)))
		case k < 15:
			in := machine.Instr{Kind: machine.KOp, Dst: g.reg(f), A: g.reg(f), B: g.reg(f)}
			switch rng.Intn(4) {
			case 0:
				in.Op = ir.OpMove
			case 1:
				in.Op = ir.OpNot
			case 2:
				in.Op = ir.OpNeg
			default:
				in.Op, in.Bin = ir.OpBin, ir.BinShr+1+ir.BinKind(rng.Intn(4)) // unknown operator
			}
			emit(in)
		case k < 16:
			emit(machine.Instr{Kind: machine.KSelect, Dst: g.reg(f), A: g.reg(f), B: g.reg(f), C: g.reg(f)})
		case k < 18:
			in := machine.Instr{Kind: machine.KLoad, Dst: g.reg(f), A: g.reg(f), GlobalOff: int32(rng.Intn(12) - 2), Index: -1}
			if rng.Intn(2) == 0 {
				in.Kind = machine.KStore
			}
			if rng.Intn(2) == 0 {
				in.Index = g.reg(f)
			}
			emit(in)
		case k < 19:
			emit(machine.Instr{Kind: machine.KCounter, CounterID: g.counters})
			g.counters++
		case k < 21: // a long straight-line stretch: a run over several lines
			for i := 6 + rng.Intn(30); i > 0; i-- {
				if rng.Intn(4) == 0 {
					emit(kconst(g.reg(f), g.imm()))
				} else {
					emit(kbin(ir.BinKind(rng.Intn(int(ir.BinShr)+1)), g.reg(f), g.reg(f), g.reg(f)))
				}
			}
		default: // a call
			callee := rng.Intn(g.nfn)
			args := make([]int32, rng.Intn(int(g.params[callee])+1))
			for i := range args {
				args[i] = g.reg(f)
			}
			dst := g.reg(f)
			if rng.Intn(6) == 0 {
				dst = -1
			}
			if rng.Intn(3) == 0 {
				// Indirect: the id register wraps into the function table,
				// extra arguments are dropped at the callee.
				id := g.reg(f)
				emit(kconst(id, int64(rng.Intn(2*g.nfn)-1)))
				emit(machine.Instr{Kind: machine.KICall, A: id, Dst: dst, ArgRegs: args})
			} else {
				emit(kcall(int32(callee), dst, args...))
			}
		}
	}
	// The way out.
	switch rng.Intn(6) {
	case 0:
		callee := rng.Intn(g.nfn)
		args := make([]int32, rng.Intn(int(g.params[callee])+1))
		for i := range args {
			args[i] = g.reg(f)
		}
		emit(ktail(int32(callee), args...))
	case 1:
		emit(machine.Instr{Kind: machine.KJump})
	case 2:
		emit(kret(-1))
	default:
		emit(kret(g.reg(f)))
	}
	for _, i := range untargeted {
		switch {
		case len(mids) > 0 && rng.Intn(3) == 0:
			body[i].Target = uint64(mids[rng.Intn(len(mids))])
		case rng.Intn(3) == 0: // forward
			body[i].Target = uint64(min(i+1+rng.Intn(len(body)-i), len(body)-1))
		default:
			body[i].Target = uint64(rng.Intn(len(body)))
		}
	}
	return body
}
