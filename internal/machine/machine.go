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
	"fmt"
	"sort"

	"csspgo/internal/ir"
)

// Kind enumerates machine instruction kinds.
type Kind uint8

// Machine instruction kinds.
const (
	KConst    Kind = iota // Dst = Value
	KOp                   // ALU: Dst = A <Bin> B / not / neg
	KSelect               // Dst = A != 0 ? B : C (cmov)
	KLoad                 // Dst = globals[GlobalOff (+ reg Index)]
	KStore                // globals[GlobalOff (+ reg Index)] = A
	KBranch               // conditional; taken → Target, else fall through
	KJump                 // unconditional → Target
	KCall                 // call function CalleeID, result → Dst
	KTailCall             // frame-reusing jump to CalleeID (TCE)
	KICall                // indirect call: target function id in register A
	KRet                  // return value in A (−1 ⇒ 0)
	KCounter              // instrumentation: counters[CounterID]++
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
// frame's register file; -1 means absent.
type Instr struct {
	Addr uint64
	Size uint32
	Kind Kind

	Op  ir.Opcode  // KOp: OpBin/OpNot/OpNeg; KSelect: OpSelect
	Bin ir.BinKind // KOp with Op==OpBin

	Dst, A, B, C int32
	Value        int64

	GlobalOff int32 // KLoad/KStore: base offset into global storage
	Index     int32 // KLoad/KStore: index register, -1 for scalar access

	Target    uint64 // KBranch/KJump/KCall/KTailCall destination address
	BranchNeg bool   // KBranch: take when cond == 0 instead of != 0
	CalleeID  int32  // KCall/KTailCall
	ArgRegs   []int32

	CounterID int32 // KCounter

	Loc *ir.Loc // debug line info with inline chain; nil if stripped
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

// Prog is the linked binary.
type Prog struct {
	Instrs     []Instr // address-sorted, contiguous
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

	addrIndex []uint64 // Instrs[i].Addr cache for binary search
	probeAt   map[uint64][]int
	funcSpans []funcSpan // address-sorted hot+cold ranges for FuncAt

	// Dense O(1) address indexes, built by Freeze when the text segment's
	// address span is small enough (always, for programs this machine
	// produces). denseIdx maps addr-denseBase to an instruction index (-1
	// between instruction starts); probeFlat/probeStart give the probe
	// indices anchored at each address slot without a map probe.
	denseBase  uint64
	denseIdx   []int32
	probeFlat  []int
	probeStart []int32
	funcDense  []int32 // addr-denseBase -> funcSpans index (-1 outside any span)
}

// maxDenseSpan bounds the memory spent on the dense address indexes; binary
// search and the probe map remain as fallback beyond it.
const maxDenseSpan = 1 << 22

// funcSpan is one contiguous address range owned by a function (a hot or a
// cold section), used by the binary-search FuncAt index.
type funcSpan struct {
	start, end uint64
	fn         *Func
}

// Freeze finalizes lookup structures after construction.
func (p *Prog) Freeze() {
	p.addrIndex = make([]uint64, len(p.Instrs))
	for i := range p.Instrs {
		p.addrIndex[i] = p.Instrs[i].Addr
	}
	p.probeAt = make(map[uint64][]int, len(p.Probes))
	for i := range p.Probes {
		p.probeAt[p.Probes[i].Addr] = append(p.probeAt[p.Probes[i].Addr], i)
	}
	p.denseIdx = nil
	p.probeFlat = nil
	p.probeStart = nil
	if n := len(p.Instrs); n > 0 {
		base := p.Instrs[0].Addr
		span := p.Instrs[n-1].Addr - base + 1
		if span <= maxDenseSpan {
			p.denseBase = base
			p.denseIdx = make([]int32, span)
			for i := range p.denseIdx {
				p.denseIdx[i] = -1
			}
			for i := range p.Instrs {
				p.denseIdx[p.Instrs[i].Addr-base] = int32(i)
			}
			// Counting sort of probe indices by address slot: probes at
			// slot s are probeFlat[probeStart[s]:probeStart[s+1]].
			p.probeStart = make([]int32, span+1)
			inRange := 0
			for i := range p.Probes {
				if off := p.Probes[i].Addr - base; off < span {
					p.probeStart[off+1]++
					inRange++
				}
			}
			for s := uint64(1); s <= span; s++ {
				p.probeStart[s] += p.probeStart[s-1]
			}
			if inRange != len(p.Probes) {
				// A probe outside the instruction span would silently
				// vanish from dense lookups; keep the map for probes.
				p.probeStart = nil
			} else {
				p.probeFlat = make([]int, inRange)
				fill := make([]int32, span)
				for i := range p.Probes {
					off := p.Probes[i].Addr - base
					p.probeFlat[p.probeStart[off]+fill[off]] = i
					fill[off]++
				}
			}
		}
	}
	p.funcSpans = p.funcSpans[:0]
	for _, f := range p.Funcs {
		if f.End > f.Start {
			p.funcSpans = append(p.funcSpans, funcSpan{f.Start, f.End, f})
		}
		if f.ColdEnd > f.ColdStart {
			p.funcSpans = append(p.funcSpans, funcSpan{f.ColdStart, f.ColdEnd, f})
		}
	}
	sort.Slice(p.funcSpans, func(i, j int) bool { return p.funcSpans[i].start < p.funcSpans[j].start })
	p.funcDense = nil
	if p.denseIdx != nil && len(p.funcSpans) > 0 {
		// Paint each span's intersection with the dense window; slots left
		// at -1 are genuine holes, so the dense answer is authoritative for
		// every in-window address.
		p.funcDense = make([]int32, len(p.denseIdx))
		for i := range p.funcDense {
			p.funcDense[i] = -1
		}
		limit := p.denseBase + uint64(len(p.funcDense))
		for si := range p.funcSpans {
			lo, hi := p.funcSpans[si].start, p.funcSpans[si].end
			if lo < p.denseBase {
				lo = p.denseBase
			}
			if hi > limit {
				hi = limit
			}
			for a := lo; a < hi; a++ {
				p.funcDense[a-p.denseBase] = int32(si)
			}
		}
	}
}

// InstrIndexAt returns the index of the instruction at addr, or -1.
func (p *Prog) InstrIndexAt(addr uint64) int {
	if p.denseIdx != nil {
		if off := addr - p.denseBase; off < uint64(len(p.denseIdx)) {
			return int(p.denseIdx[off])
		}
		return -1
	}
	i := sort.Search(len(p.addrIndex), func(i int) bool { return p.addrIndex[i] >= addr })
	if i < len(p.addrIndex) && p.addrIndex[i] == addr {
		return i
	}
	return -1
}

// InstrAt returns the instruction at addr, or nil.
func (p *Prog) InstrAt(addr uint64) *Instr {
	if i := p.InstrIndexAt(addr); i >= 0 {
		return &p.Instrs[i]
	}
	return nil
}

// FuncAt returns the function covering addr (hot or cold range), or nil.
// After Freeze it is a binary search over the span index; before Freeze it
// falls back to a linear symbol-table scan.
func (p *Prog) FuncAt(addr uint64) *Func {
	if p.funcDense != nil {
		if off := addr - p.denseBase; off < uint64(len(p.funcDense)) {
			if i := p.funcDense[off]; i >= 0 {
				return p.funcSpans[i].fn
			}
			return nil
		}
		// Outside the dense window: fall through to the span search (a
		// function range may extend past the last instruction start).
	}
	if len(p.funcSpans) > 0 {
		i := sort.Search(len(p.funcSpans), func(i int) bool { return p.funcSpans[i].end > addr })
		if i < len(p.funcSpans) && addr >= p.funcSpans[i].start {
			return p.funcSpans[i].fn
		}
		return nil
	}
	for _, f := range p.Funcs {
		if f.Contains(addr) {
			return f
		}
	}
	return nil
}

// ProbesAt returns probe metadata records anchored at addr.
func (p *Prog) ProbesAt(addr uint64) []ProbeRec {
	var out []ProbeRec
	for _, i := range p.probeAt[addr] {
		out = append(out, p.Probes[i])
	}
	return out
}

// ProbeIndicesAt returns the indices into Probes of the records anchored at
// addr. Unlike ProbesAt it does not copy records — the returned slice is
// owned by the index and must not be mutated — so hot paths can walk probe
// metadata without a per-call allocation.
func (p *Prog) ProbeIndicesAt(addr uint64) []int {
	if p.probeStart != nil {
		if off := addr - p.denseBase; off < uint64(len(p.probeStart)-1) {
			return p.probeFlat[p.probeStart[off]:p.probeStart[off+1]]
		}
		return nil
	}
	return p.probeAt[addr]
}

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
