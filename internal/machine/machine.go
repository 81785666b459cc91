// Package machine models the fully linked binary: a linear sequence of
// variable-size machine instructions with byte addresses, a symbol table,
// DWARF-like line/inline debug tables, and — when pseudo-instrumentation is
// enabled — a self-contained probe metadata section mapping probes to the
// addresses of their anchor instructions. The profilers (internal/sim) run
// this program; the profile generators (internal/sampling) and the
// pre-inliner (internal/preinline) read its tables exactly the way the
// paper's tooling reads a production binary.
package machine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"csspgo/internal/ir"
)

// Kind enumerates machine instruction kinds.
type Kind uint8

// Machine instruction kinds.
const (
	KConst    Kind = iota // Dst = Value
	KOp                   // ALU: Dst = A <Bin> B / not / neg
	KSelect               // Dst = A != 0 ? B : C (cmov)
	KLoad                 // Dst = globals[Ref (+ reg B)]
	KStore                // globals[Ref (+ reg B)] = A
	KBranch               // conditional; taken → Target, else fall through
	KJump                 // unconditional → Target
	KCall                 // call function Ref, result → Dst
	KTailCall             // frame-reusing jump to function Ref (TCE)
	KICall                // indirect call: target function id in register A
	KRet                  // return value in A (−1 ⇒ 0)
	KCounter              // instrumentation: counters[Ref]++
)

var kindNames = [...]string{
	KConst: "const", KOp: "op", KSelect: "select", KLoad: "load", KStore: "store",
	KBranch: "br", KJump: "jmp", KCall: "call", KTailCall: "tcall", KICall: "icall",
	KRet: "ret", KCounter: "cnt",
}

func (k Kind) String() string { return kindNames[k] }

// Byte size of each instruction kind (x86-64-flavoured).
var kindSizes = [...]uint32{
	KConst: 5, KOp: 3, KSelect: 4, KLoad: 4, KStore: 4,
	KBranch: 2, KJump: 2, KCall: 5, KTailCall: 5, KICall: 3, KRet: 1, KCounter: 7,
}

// SizeOf returns the encoded byte size of an instruction kind.
func SizeOf(k Kind) uint32 { return kindSizes[k] }

// Instr is one machine instruction. Operand registers index the executing
// frame's register file; -1 means absent. Loc is the one field that holds a
// pointer and comes first, so the collector scans 8 of its 64 bytes; the
// rest are ordered by size. An instruction's byte size is SizeOf(Kind).
type Instr struct {
	Loc *ir.Loc // debug line info with inline chain; nil if stripped

	Addr   uint64
	Value  int64
	Target uint64 // KBranch/KJump/KCall/KTailCall destination address

	// A, B and C are the source registers. KLoad and KStore keep their
	// index register in B, -1 for a scalar access.
	Dst, A, B, C int32

	// Ref is the one table index an instruction names: the base offset into
	// global storage for KLoad/KStore, the callee's function ID for
	// KCall/KTailCall, the counter for KCounter.
	Ref int32

	// The argument registers of a KCall, KTailCall or KICall are
	// Prog.ArgRegs[ArgStart : ArgStart+ArgCount] (see Prog.Args).
	ArgStart, ArgCount int32

	Kind      Kind
	Op        ir.Opcode  // KOp: OpBin/OpNot/OpNeg; KSelect: OpSelect
	Bin       ir.BinKind // KOp with Op==OpBin
	BranchNeg bool       // KBranch: take when cond == 0 instead of != 0
}

// Func is a binary symbol: one function's hot range plus an optional cold
// (split) range.
type Func struct {
	ID        int32
	Name      string
	GUID      uint64
	Module    string
	Start     uint64 // hot section [Start, End)
	End       uint64
	ColdStart uint64 // cold section [ColdStart, ColdEnd); 0,0 when not split
	ColdEnd   uint64
	NumRegs   int32
	NumParams int32
	StartLine int32 // source line of the func declaration (from debug info)
}

// Contains reports whether addr belongs to the function (hot or cold part).
func (f *Func) Contains(addr uint64) bool {
	return addr >= f.Start && addr < f.End ||
		f.ColdEnd > f.ColdStart && addr >= f.ColdStart && addr < f.ColdEnd
}

// ProbeRec is one materialized pseudo-probe metadata record: the probe's
// identity (defining function, ID, kind, inline context, duplication
// factor) and the address of the physical anchor instruction it was
// attached to in the final binary.
type ProbeRec struct {
	Func      string
	ID        int32
	Kind      ir.ProbeKind
	Factor    float64
	InlinedAt *ir.ProbeSite
	Addr      uint64
}

// CounterKey identifies what an instrumentation counter counts.
type CounterKey struct {
	Func string
	ID   int32 // block probe id within Func
}

// InstrLayout numbers the layout of Instr. A binary records the layout it
// was emitted with, and ReadProg rejects any other: gob matches fields by
// name, so a binary saved with an older record would load with the fields
// this one merged or removed silently zero. Layout 1 was the 96-byte
// record with Size, GlobalOff, Index, CalleeID, CounterID and per-call
// ArgRegs; it saved no marker, which reads back as 0.
const InstrLayout = 2

// Prog is the linked binary.
type Prog struct {
	Instrs     []Instr // address-sorted, contiguous
	ArgRegs    []int32 // every call's argument registers, in one slab
	Layout     int32   // InstrLayout of the code generator that emitted it
	Funcs      []*Func
	FuncByName map[string]*Func

	GlobalSize int
	GlobalInit []int64
	GlobalOff  map[string]int32

	// Probe metadata section (pseudo-instrumentation). Never consulted by
	// the simulator's execution path — it is not "loaded at run time".
	Probes    []ProbeRec
	Checksums map[string]uint64 // function -> CFG checksum at build time

	// Instrumentation (Instr PGO) counter table.
	NumCounters int32
	CounterKeys []CounterKey

	// Instrumented marks a counter-instrumented binary; the simulator then
	// also collects exact per-site indirect-call target value profiles
	// (and charges for the bookkeeping), mirroring instrumentation PGO's
	// value profiling.
	Instrumented bool

	EntryAddr uint64 // address of main's first instruction

	// Section size accounting (bytes).
	TextSize      uint64
	DebugSize     uint64 // DWARF-like line+inline tables (-g2)
	ProbeMetaSize uint64

	// ix holds the address lookup tables, built on the first lookup: a
	// binary that is only executed, encoded or saved never builds them.
	ixOnce sync.Once
	ix     *Index
}

// maxDenseSpan bounds the text span, and so the memory, of the dense
// address tables. Every binary this machine produces is far below it;
// ReadProg rejects one that is not.
const maxDenseSpan = 1 << 22

// Index is a binary's address lookup tables, each a slice by address
// offset from the first instruction: the instruction starting at the
// address, the function span covering it, and the probe records anchored
// there. Prog.Index builds it once, on first use and race-safely; a hot
// loop fetches it once and asks it directly.
type Index struct {
	base uint64
	// instr maps addr-base to an instruction index, -1 between
	// instruction starts.
	instr []int32
	// fn maps addr-base to a funcSpans index, -1 outside every span.
	fn []int32
	// The probes anchored at slot s are probes[probeStart[s]:probeStart[s+1]].
	probeStart []int32
	probes     []int32
	// funcSpans are the functions' hot and cold ranges, by address; FuncAt
	// searches them for an address past the last instruction start.
	funcSpans []funcSpan
}

// funcSpan is one contiguous address range owned by a function (a hot or a
// cold section).
type funcSpan struct {
	start, end uint64
	fn         *Func
}

// Index returns the binary's lookup tables, building them on the first
// call. The binary must not change after that.
func (p *Prog) Index() *Index {
	p.ixOnce.Do(func() { p.ix = newIndex(p) })
	return p.ix
}

// textSpan is the number of addresses from the first instruction start to
// the last.
func (p *Prog) textSpan() uint64 {
	if len(p.Instrs) == 0 {
		return 0
	}
	return p.Instrs[len(p.Instrs)-1].Addr - p.Instrs[0].Addr + 1
}

// newIndex builds the tables. The three by-slot tables and the probe list
// are carved from one allocation. A probe anchored outside the text span
// is not indexed: no instruction start can name it.
func newIndex(p *Prog) *Index {
	x := &Index{}
	span := p.textSpan()
	if span > maxDenseSpan {
		panic(fmt.Sprintf("machine: text span of %d bytes is over the %d the lookup tables cover", span, maxDenseSpan))
	}
	if len(p.Instrs) > 0 {
		x.base = p.Instrs[0].Addr
	}
	inSpan := 0
	for i := range p.Probes {
		if p.Probes[i].Addr-x.base < span {
			inSpan++
		}
	}
	n := int(span)
	slab := make([]int32, 3*n+1+inSpan)
	x.instr, x.fn, x.probeStart, x.probes = slab[:n:n], slab[n:2*n:2*n], slab[2*n:3*n+1:3*n+1], slab[3*n+1:]
	for i := range x.instr {
		x.instr[i] = -1
		x.fn[i] = -1
	}
	for i := range p.Instrs {
		x.instr[p.Instrs[i].Addr-x.base] = int32(i)
	}
	// Counting sort of probe indices by slot, in index order within a slot:
	// count into probeStart[s+1], take prefix sums, then place each probe at
	// its slot's running start, which leaves probeStart[s] at slot s's end;
	// shifting by one restores the starts.
	for i := range p.Probes {
		if off := p.Probes[i].Addr - x.base; off < span {
			x.probeStart[off+1]++
		}
	}
	for s := 1; s <= n; s++ {
		x.probeStart[s] += x.probeStart[s-1]
	}
	for i := range p.Probes {
		if off := p.Probes[i].Addr - x.base; off < span {
			x.probes[x.probeStart[off]] = int32(i)
			x.probeStart[off]++
		}
	}
	copy(x.probeStart[1:], x.probeStart[:n])
	if n > 0 {
		x.probeStart[0] = 0
	}

	x.funcSpans = make([]funcSpan, 0, 2*len(p.Funcs))
	for _, f := range p.Funcs {
		if f.End > f.Start {
			x.funcSpans = append(x.funcSpans, funcSpan{f.Start, f.End, f})
		}
		if f.ColdEnd > f.ColdStart {
			x.funcSpans = append(x.funcSpans, funcSpan{f.ColdStart, f.ColdEnd, f})
		}
	}
	slices.SortStableFunc(x.funcSpans, func(a, b funcSpan) int { return cmp.Compare(a.start, b.start) })
	// Paint each span's intersection with the window; slots left at -1 are
	// genuine holes, so the table's answer is final for every address in it.
	limit := x.base + span
	for si, fs := range x.funcSpans {
		for a := max(fs.start, x.base); a < min(fs.end, limit); a++ {
			x.fn[a-x.base] = int32(si)
		}
	}
	return x
}

// InstrIndexAt returns the index of the instruction at addr, or -1.
func (x *Index) InstrIndexAt(addr uint64) int {
	if off := addr - x.base; off < uint64(len(x.instr)) {
		return int(x.instr[off])
	}
	return -1
}

// FuncAt returns the function covering addr (hot or cold range), or nil.
func (x *Index) FuncAt(addr uint64) *Func {
	if off := addr - x.base; off < uint64(len(x.fn)) {
		if i := x.fn[off]; i >= 0 {
			return x.funcSpans[i].fn
		}
		return nil
	}
	// Outside the window (a function range may extend past the last
	// instruction start): search the spans.
	i := sort.Search(len(x.funcSpans), func(i int) bool { return x.funcSpans[i].end > addr })
	if i < len(x.funcSpans) && addr >= x.funcSpans[i].start {
		return x.funcSpans[i].fn
	}
	return nil
}

// ProbeIndicesAt returns the indices into Probes of the records anchored at
// addr, in index order. The slice belongs to the index and must not be
// changed.
func (x *Index) ProbeIndicesAt(addr uint64) []int32 {
	if off := addr - x.base; off < uint64(len(x.instr)) {
		return x.probes[x.probeStart[off]:x.probeStart[off+1]]
	}
	return nil
}

// InstrIndexAt returns the index of the instruction at addr, or -1.
func (p *Prog) InstrIndexAt(addr uint64) int { return p.Index().InstrIndexAt(addr) }

// InstrAt returns the instruction at addr, or nil.
func (p *Prog) InstrAt(addr uint64) *Instr {
	if i := p.InstrIndexAt(addr); i >= 0 {
		return &p.Instrs[i]
	}
	return nil
}

// Args returns the argument registers of p's call instruction in.
func (p *Prog) Args(in *Instr) []int32 {
	end := in.ArgStart + in.ArgCount
	return p.ArgRegs[in.ArgStart:end:end]
}

// FuncAt returns the function covering addr (hot or cold range), or nil.
func (p *Prog) FuncAt(addr uint64) *Func { return p.Index().FuncAt(addr) }

// Frame is one logical (possibly inlined) frame at an address.
type Frame struct {
	Func string
	Line int32
	Disc int32
}

// InlinedFramesAt returns the logical frames at addr, leaf-first, derived
// from the debug inline table (the Loc chain). A plain instruction yields
// one frame. Returns nil for unknown addresses or stripped debug info.
func (p *Prog) InlinedFramesAt(addr uint64) []Frame {
	in := p.InstrAt(addr)
	if in == nil || in.Loc == nil {
		return nil
	}
	var out []Frame
	for l := in.Loc; l != nil; l = l.Parent {
		out = append(out, Frame{Func: l.Func, Line: l.Line, Disc: l.Disc})
	}
	return out
}

// String summarizes the binary.
func (p *Prog) String() string {
	return fmt.Sprintf("binary{funcs=%d instrs=%d text=%dB debug=%dB probemeta=%dB counters=%d}",
		len(p.Funcs), len(p.Instrs), p.TextSize, p.DebugSize, p.ProbeMetaSize, p.NumCounters)
}
