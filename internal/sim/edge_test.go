package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"csspgo/internal/codegen"
	"csspgo/internal/ir"
	"csspgo/internal/machine"
)

// Edge cases around frames, register files and control transfers to
// addresses outside the text segment. The expected Stats and digests in
// this file were read off the interpreter that walked machine.Instr
// directly; they pin the rewritten Run to the same counts.

// asmFunc is one hand-assembled function: branch-kind instructions give
// their Target as an index into the function's own body (resolved by link),
// calls name their callee by CalleeID.
type asmFunc struct {
	name            string
	regs, params    int32
	body            []machine.Instr
	rawBranchTarget bool // leave Target untouched (an address on purpose)
}

// link lays the functions out contiguously from 0x1000 in the given order
// and returns the binary; main is the entry.
func link(fns ...asmFunc) *machine.Prog {
	p := &machine.Prog{FuncByName: map[string]*machine.Func{}}
	addr := uint64(0x1000)
	starts := make([][]uint64, len(fns))
	for id, fn := range fns {
		f := &machine.Func{ID: int32(id), Name: fn.name, NumRegs: fn.regs, NumParams: fn.params, Start: addr}
		for _, in := range fn.body {
			starts[id] = append(starts[id], addr)
			addr += uint64(machine.SizeOf(in.Kind))
		}
		f.End = addr
		p.Funcs = append(p.Funcs, f)
		p.FuncByName[fn.name] = f
	}
	for id, fn := range fns {
		for i, in := range fn.body {
			in.Addr = starts[id][i]
			in.Size = machine.SizeOf(in.Kind)
			switch in.Kind {
			case machine.KBranch, machine.KJump:
				if !fn.rawBranchTarget {
					in.Target = starts[id][in.Target]
				}
			case machine.KCall, machine.KTailCall:
				if in.Target == 0 {
					in.Target = p.Funcs[in.CalleeID].Start
				}
			}
			p.Instrs = append(p.Instrs, in)
		}
	}
	p.EntryAddr = p.FuncByName["main"].Start
	p.Freeze()
	return p
}

func kconst(dst int32, v int64) machine.Instr {
	return machine.Instr{Kind: machine.KConst, Dst: dst, Value: v}
}
func kbin(k ir.BinKind, dst, a, b int32) machine.Instr {
	return machine.Instr{Kind: machine.KOp, Op: ir.OpBin, Bin: k, Dst: dst, A: a, B: b}
}
func kcall(callee, dst int32, args ...int32) machine.Instr {
	return machine.Instr{Kind: machine.KCall, CalleeID: callee, Dst: dst, ArgRegs: args}
}
func ktail(callee int32, args ...int32) machine.Instr {
	return machine.Instr{Kind: machine.KTailCall, CalleeID: callee, ArgRegs: args}
}
func kret(a int32) machine.Instr { return machine.Instr{Kind: machine.KRet, A: a} }

// dirty fills eight registers with nonzero values and returns, so whatever
// memory the next callee's register file lands on is not zero by accident.
func dirtyFunc() asmFunc {
	var body []machine.Instr
	for r := int32(0); r < 8; r++ {
		body = append(body, kconst(r, 1000+int64(r)))
	}
	return asmFunc{name: "dirty", regs: 8, body: append(body, kret(0))}
}

func TestTailCallIntoLargerAndSmallerFrame(t *testing.T) {
	const (
		fMain = iota
		fDirty
		fMid
		fBig
		fSmall
	)
	p := link(
		asmFunc{name: "main", regs: 3, params: 1, body: []machine.Instr{
			kconst(2, 77),
			kcall(fDirty, 1),
			kcall(fMid, 1, 0),
			kbin(ir.BinAdd, 1, 1, 2), // r2 must have survived both calls
			kret(1),
		}},
		dirtyFunc(),
		// mid(x): two registers, tail-calls a six-register callee with its
		// arguments swapped, so an in-place rebuild must not read an
		// argument it has already overwritten.
		asmFunc{name: "mid", regs: 2, params: 1, body: []machine.Instr{
			kconst(1, 5),
			ktail(fBig, 1, 0),
		}},
		// big(p, q) = p - q + r5, where r5 was never written: it must be 0
		// although dirty left 1005 in that slot.
		asmFunc{name: "big", regs: 6, params: 2, body: []machine.Instr{
			kbin(ir.BinSub, 2, 0, 1),
			kbin(ir.BinAdd, 2, 2, 5),
			ktail(fSmall, 2),
		}},
		asmFunc{name: "small", regs: 1, params: 1, body: []machine.Instr{kret(0)}},
	)
	for _, pmu := range []PMUConfig{{}, DefaultPMUConfig(1), {SamplePeriod: 1, SampleStacks: true}} {
		m := New(p, DefaultCostParams(), pmu)
		for i := 0; i < 2; i++ {
			got, err := m.Run(100)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(5 - 100 + 77); got != want {
				t.Fatalf("run %d: got %d, want %d", i, got, want)
			}
		}
		if st := m.Stats(); st.Calls != 8 || st.Returns != 6 {
			t.Fatalf("calls/returns = %d/%d, want 8/6 (two tail calls per run reuse the frame)", st.Calls, st.Returns)
		}
	}
}

func TestICallExtraArgsDropped(t *testing.T) {
	const (
		fMain = iota
		fDirty
		fOne
	)
	p := link(
		asmFunc{name: "main", regs: 4, params: 1, body: []machine.Instr{
			kcall(fDirty, 1),
			kconst(1, fOne),
			kconst(2, 900),
			kconst(3, 901),
			{Kind: machine.KICall, A: 1, Dst: 1, ArgRegs: []int32{0, 2, 3}},
			kret(1),
		}},
		dirtyFunc(),
		// one(x) = x + r1 + r2 with one parameter: the two extra arguments
		// must not arrive, and r1/r2 must read 0.
		asmFunc{name: "one", regs: 3, params: 1, body: []machine.Instr{
			kbin(ir.BinAdd, 0, 0, 1),
			kbin(ir.BinAdd, 0, 0, 2),
			kret(0),
		}},
	)
	m := New(p, DefaultCostParams(), PMUConfig{})
	got, err := m.Run(42)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("icall result = %d, want 42", got)
	}
	// All three argument moves are charged even though two are dropped.
	if st := m.Stats(); st.IndirectCalls != 1 || st.Calls != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestUnmappedTargets: a transfer to an address outside the text segment is
// an error, but the branch itself retires first — it is counted, charged
// and visible in the LBR (and sampled, at period 1).
func TestUnmappedTargets(t *testing.T) {
	const bad = 0xdead0
	cases := []struct {
		name string
		prog *machine.Prog
		want Stats
		to   uint64 // LBR[0].To of the last sample
	}{
		{"jump", link(asmFunc{name: "main", regs: 1, rawBranchTarget: true, body: []machine.Instr{
			{Kind: machine.KJump, Target: bad},
		}}), Stats{Cycles: 14, Instructions: 1, TakenBranches: 1, ICacheMisses: 1, Samples: 1}, bad},
		{"branch", link(asmFunc{name: "main", regs: 1, rawBranchTarget: true, body: []machine.Instr{
			kconst(0, 1),
			{Kind: machine.KBranch, A: 0, Target: bad},
		}}), Stats{Cycles: 15, Instructions: 2, CondBranches: 1, TakenBranches: 1, ICacheMisses: 1, Samples: 1}, bad},
		{"call", link(asmFunc{name: "main", regs: 1, body: []machine.Instr{
			{Kind: machine.KCall, CalleeID: 0, Dst: 0, Target: bad},
		}}), Stats{Cycles: 16, Instructions: 1, TakenBranches: 1, ICacheMisses: 1, Calls: 1, Samples: 1}, bad},
		{"tailcall", link(asmFunc{name: "main", regs: 1, body: []machine.Instr{
			{Kind: machine.KTailCall, CalleeID: 0, Target: bad},
		}}), Stats{Cycles: 14, Instructions: 1, TakenBranches: 1, ICacheMisses: 1, Calls: 1, Samples: 1}, bad},
		// The call is the last instruction of the binary, so the callee
		// returns to the address just past the text segment.
		{"ret", link(
			asmFunc{name: "f", regs: 1, body: []machine.Instr{kret(0)}},
			asmFunc{name: "main", regs: 1, body: []machine.Instr{kcall(0, 0)}},
		), Stats{Cycles: 19, Instructions: 2, TakenBranches: 2, ICacheMisses: 1, Calls: 1, Returns: 1, Samples: 2}, 0x1006},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, pebs := range []bool{true, false} {
				cfg := PMUConfig{SamplePeriod: 1, PEBS: pebs, SampleStacks: true}
				m := New(c.prog, DefaultCostParams(), cfg)
				_, err := m.Run()
				if err == nil || err.Error() != "sim: jump to unmapped address" {
					t.Fatalf("err = %v", err)
				}
				if m.Stats() != c.want {
					t.Fatalf("pebs=%v stats\n got  %+v\n want %+v", pebs, m.Stats(), c.want)
				}
				s := m.Samples()
				if len(s) == 0 || s[len(s)-1].LBR[0].To != c.to {
					t.Fatalf("offending branch missing from the LBR: %+v", s)
				}
			}
		})
	}
}

const recurseSrc = `
global depthseen;
func main(n, k) { return rec(n, k); }
func rec(n, k) {
	var a = n * 3 + k;
	var b = n + 7;
	if (n == 0) { depthseen = depthseen + 1; return k; }
	var r = rec(n - 1, k + 1);
	return r + a - b;
}`

// recurseWant is rec(n, k) in closed form: the callee's result plus, per
// level, (3i + k + n - i) - (i + 7) for i = n..1 — every term needs the
// caller's a and b intact after the call returns.
func recurseWant(n, k int64) int64 {
	r := k + n
	for i := n; i >= 1; i-- {
		r += (3*i + k + (n - i)) - (i + 7)
	}
	return r
}

func TestDeepRecursionKeepsCallerRegisters(t *testing.T) {
	mp := compile(t, recurseSrc, codegen.Options{}, false)
	m := New(mp, DefaultCostParams(), DefaultPMUConfig(199))
	for _, n := range []int64{10, 6000, 50, 9000} {
		got, err := m.Run(n, 3)
		if err != nil {
			t.Fatal(err)
		}
		if want := recurseWant(n, 3); got != want {
			t.Fatalf("rec(%d) = %d, want %d", n, got, want)
		}
	}
	// The deep runs outgrow the arena several times over, each time in the
	// middle of a call with thousands of caller frames live below it.
	if len(m.arena) < 4*initialArena {
		t.Fatalf("arena is %d registers, want it to have doubled at least twice from %d", len(m.arena), initialArena)
	}
}

// statsDigest folds every Stats field of every machine into one line.
func statsDigest(ms []*Machine) string {
	h := fnv.New64a()
	for _, m := range ms {
		s := m.Stats()
		for _, v := range []uint64{s.Cycles, s.Instructions, s.CondBranches, s.TakenBranches, s.Mispredicts,
			s.ICacheMisses, s.Calls, s.IndirectCalls, s.Returns, s.Samples, uint64(len(m.Samples()))} {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// stepLimitSrc stores to globals and, built instrumented, increments
// counters in straight-line code, so whatever the step limit cuts off a
// run leaves state behind.
const stepLimitSrc = `
global depthseen;
global tab[4];
func main(n, k) { return rec(n, k); }
func rec(n, k) {
	tab[n % 4] = tab[n % 4] + k;
	var a = n * 3 + k;
	depthseen = depthseen + a;
	var b = n + 7;
	if (n == 0) { return k; }
	var r = rec(n - 1, k + 1);
	tab[k % 4] = r;
	return r + a - b;
}`

// stateDigest folds what Stats does not show of every machine into one
// line: globals, counters, the meter's probe tallies and the newest
// sample's LBR.
func stateDigest(ms []*Machine) string {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, m := range ms {
		put(uint64(len(m.globals)))
		for _, g := range m.globals {
			put(uint64(g))
		}
		put(uint64(len(m.counters)))
		for _, c := range m.counters {
			put(c)
		}
		if m.meter != nil {
			put(m.meter.ProbeCycles)
			for id := int32(0); id < m.Prog.NumCounters; id++ {
				put(m.meter.ProbeHits[id])
			}
		}
		if s := m.Samples(); len(s) > 0 {
			for _, b := range s[len(s)-1].LBR {
				put(b.From)
				put(b.To)
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestStepLimitStatsPinned stops the same run after every step count from 1
// to 400: whatever instruction the limit lands on — mid-line, right after a
// taken branch, between a call and its callee's first fetch, inside a
// straight-line run — Stats must read what the reference interpreter read,
// and globals, counters, meter and the last sample's LBR what the
// per-instruction loop left (state digests taken at d26cf6a): a limit
// inside a run still executes every instruction before it, stores and
// counters included. recurseSrc is the original case; an instrumented,
// metered build of stepLimitSrc gives the state digest something to see.
func TestStepLimitStatsPinned(t *testing.T) {
	for _, c := range []struct {
		name  string
		src   string
		opts  codegen.Options
		stats string
		state string
	}{
		{"recurse", recurseSrc, codegen.Options{}, "0288b15ed4c227e6", "62a1b3cdf8e0f392"},
		{"instr", stepLimitSrc, codegen.Options{Instrument: true}, "0a0bbd360bcc5310", "c7eb3234b9edf070"},
	} {
		mp := compile(t, c.src, c.opts, c.opts.Instrument)
		var ms []*Machine
		for steps := uint64(1); steps <= 400; steps++ {
			cfg := DefaultPMUConfig(7)
			cfg.PEBS = steps%2 == 0
			m := New(mp, ProfilingCostParams(), cfg)
			if c.opts.Instrument {
				m.SetOverheadMeter(NewOverheadMeter())
			}
			m.MaxSteps = steps
			if _, err := m.Run(40, 1); err != errStepLimit {
				t.Fatalf("%s steps=%d: err = %v", c.name, steps, err)
			}
			if m.Stats().Instructions != steps {
				t.Fatalf("%s steps=%d: %d instructions retired", c.name, steps, m.Stats().Instructions)
			}
			ms = append(ms, m)
		}
		if got := statsDigest(ms); got != c.stats {
			t.Errorf("%s: step-limit stats digest %s, want %s", c.name, got, c.stats)
		}
		if got := stateDigest(ms); got != c.state {
			t.Errorf("%s: step-limit state digest %s, want %s", c.name, got, c.state)
		}
	}
}

// TestStepLimitStallPinned: an instruction of unknown Kind retires in
// place, one BaseCPI a step, until the step limit. Nothing the compiler emits reaches
// it, so the counts at every limit from 1 to 50 — which cut the way there
// anywhere, or land on the stall — are pinned here (digests taken at
// d26cf6a).
func TestStepLimitStallPinned(t *testing.T) {
	p := link(asmFunc{name: "main", regs: 2, params: 1, body: []machine.Instr{
		kconst(1, 3),
		kbin(ir.BinAdd, 1, 1, 0),
		{Kind: machine.KCounter, CounterID: 0},
		{Kind: machine.KStore, A: 1, Index: -1},
		kbin(ir.BinLt, 1, 0, 1),
		{Kind: machine.KBranch, A: 1, Target: 7},
		kret(0),
		kconst(0, 5),
		{Kind: machine.KStore, A: 0, GlobalOff: 1, Index: -1},
		{Kind: machine.KCounter, CounterID: 1}, // becomes the stall
		kret(0),
	}})
	p.Instrs[9].Kind = machine.KCounter + 7
	p.GlobalInit = []int64{0, 0}
	p.NumCounters = 1
	var ms []*Machine
	for steps := uint64(1); steps <= 50; steps++ {
		m := New(p, ProfilingCostParams(), PMUConfig{SamplePeriod: 1, SampleStacks: true, PEBS: steps%2 == 0})
		m.SetOverheadMeter(NewOverheadMeter())
		m.MaxSteps = steps
		for run := 0; run < 2; run++ {
			if _, err := m.Run(int64(steps)); err != errStepLimit {
				t.Fatalf("steps=%d run %d: err = %v", steps, run, err)
			}
		}
		if got := m.Stats().Instructions; got != 2*steps {
			t.Fatalf("steps=%d: %d instructions retired, want %d", steps, got, 2*steps)
		}
		ms = append(ms, m)
	}
	const wantStats, wantState = "60c748af4ea6ce11", "32733a65cf8a9f66"
	if got := statsDigest(ms); got != wantStats {
		t.Errorf("stall stats digest %s, want %s", got, wantStats)
	}
	if got := stateDigest(ms); got != wantState {
		t.Errorf("stall state digest %s, want %s", got, wantState)
	}
}

func TestRunAfterFailedRunStartsClean(t *testing.T) {
	mp := compile(t, recurseSrc, codegen.Options{}, false)
	m := New(mp, DefaultCostParams(), DefaultPMUConfig(16))
	m.MaxSteps = 5000
	if _, err := m.Run(3000, 1); err != errStepLimit {
		t.Fatalf("err = %v", err)
	}
	m.MaxSteps = 500_000_000
	aborted := len(m.Samples())
	for i := 0; i < 2; i++ {
		got, err := m.Run(25, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := recurseWant(25, 2); got != want {
			t.Fatalf("run %d after a failed run = %d, want %d", i, got, want)
		}
		if len(m.frames) != 0 {
			t.Fatalf("run %d left %d frames", i, len(m.frames))
		}
	}
	// The stack samples of the clean runs must not carry frames of the
	// aborted one: the deepest possible stack is main + 26 rec frames.
	clean := m.Samples()[aborted:]
	if len(clean) == 0 {
		t.Fatal("no samples from the clean runs")
	}
	for _, s := range clean {
		if len(s.Stack) > 27 {
			t.Fatalf("sample stack depth %d leaks frames of the aborted run", len(s.Stack))
		}
	}
}
