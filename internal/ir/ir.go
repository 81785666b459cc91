// Package ir defines the compiler intermediate representation used
// throughout the CSSPGO reproduction: a conventional control-flow-graph IR
// with virtual registers, explicit terminators, source debug locations and
// pseudo-probe intrinsics.
//
// The IR is deliberately non-SSA: virtual registers may be assigned more
// than once. This keeps the optimizer passes (inlining, unrolling, LICM,
// tail merging, if-conversion) simple while still exercising every
// profile-maintenance hazard the paper discusses.
package ir

import "fmt"

// Reg names a virtual register within a function. Registers are
// function-local and may be reassigned (the IR is not SSA). NoReg marks an
// absent operand.
type Reg int32

// NoReg is the sentinel for "no register operand".
const NoReg Reg = -1

// Opcode enumerates IR instruction kinds.
type Opcode uint8

// Instruction opcodes.
const (
	OpConst   Opcode = iota // Dst = Value
	OpBin                   // Dst = A <BinKind> B
	OpNot                   // Dst = !A (logical)
	OpNeg                   // Dst = -A
	OpLoadG                 // Dst = global Sym[Index] (Index==NoReg: scalar global)
	OpStoreG                // global Sym[Index] = A
	OpCall                  // Dst = Sym(Args...) (Dst may be NoReg)
	OpSelect                // Dst = A != 0 ? B : C  (produced by if-conversion)
	OpMove                  // Dst = A (register copy; used by the inliner)
	OpFuncRef               // Dst = opaque id of function Sym
	OpICall                 // Dst = (*A)(Args...) — indirect call through a function id
	OpProbe                 // pseudo-probe intrinsic; no dataflow
	OpCounter               // instrumentation counter increment (Instr PGO)
)

// BinKind enumerates binary operators for OpBin.
type BinKind uint8

// Binary operator kinds.
const (
	BinAdd BinKind = iota
	BinSub
	BinMul
	BinDiv
	BinRem
	BinEq
	BinNe
	BinLt
	BinLe
	BinGt
	BinGe
	BinAnd // bitwise-and (used for lowered logical ops on 0/1 values)
	BinOr  // bitwise-or
	BinXor
	BinShl
	BinShr
)

var binNames = [...]string{
	BinAdd: "add", BinSub: "sub", BinMul: "mul", BinDiv: "div", BinRem: "rem",
	BinEq: "eq", BinNe: "ne", BinLt: "lt", BinLe: "le", BinGt: "gt", BinGe: "ge",
	BinAnd: "and", BinOr: "or", BinXor: "xor", BinShl: "shl", BinShr: "shr",
}

func (b BinKind) String() string { return binNames[b] }

// Loc is a source debug location. Inlined code carries a Parent chain: Line
// is the line within Func, and Parent is the location of the call site this
// code was inlined through (recursively), mirroring DWARF inlined_at.
type Loc struct {
	Func   string // function the Line belongs to
	Line   int32  // absolute source line (1-based); 0 = unknown
	Disc   int32  // DWARF-style discriminator
	Parent *Loc   // inlined-at call-site location, nil if not inlined
}

// String renders the location as fn:line[.disc] with @-separated inline
// frames, innermost first.
func (l *Loc) String() string {
	if l == nil {
		return "?"
	}
	s := fmt.Sprintf("%s:%d", l.Func, l.Line)
	if l.Disc != 0 {
		s += fmt.Sprintf(".%d", l.Disc)
	}
	if l.Parent != nil {
		s += " @ " + l.Parent.String()
	}
	return s
}

// Depth returns the number of frames in the inline chain (1 for a
// non-inlined location).
func (l *Loc) Depth() int {
	n := 0
	for p := l; p != nil; p = p.Parent {
		n++
	}
	return n
}

// ProbeKind distinguishes block probes from call-site probes.
type ProbeKind uint8

// Probe kinds.
const (
	ProbeBlock ProbeKind = iota
	ProbeCall
)

// ProbeSite identifies one frame of a probe's inline context: the function
// (by name; GUIDs are derived) and the call-site probe ID within it.
// Parent points outward (toward the top-level function), mirroring Loc.
type ProbeSite struct {
	Func   string
	CallID int32
	Parent *ProbeSite
}

// String renders the inline chain innermost-first, e.g. "foo:2 @ main:5".
func (p *ProbeSite) String() string {
	if p == nil {
		return ""
	}
	s := fmt.Sprintf("%s:%d", p.Func, p.CallID)
	if p.Parent != nil {
		s += " @ " + p.Parent.String()
	}
	return s
}

// InlinedAt returns the chain p once the function holding it is inlined at
// site: p's frames, copied, with site as the new outermost frame (site
// itself when p is nil). site is shared, not copied.
func (p *ProbeSite) InlinedAt(site *ProbeSite) *ProbeSite {
	if p == nil {
		return site
	}
	out := *p
	out.Parent = p.Parent.InlinedAt(site)
	return &out
}

// Probe is the payload of an OpProbe instruction or of a call site's probe.
// ID is unique within the defining function (Func). Factor scales the
// expected execution frequency when optimizations duplicate or partially
// clone a probe (e.g. an unrolled-by-4 loop body probe has Factor 1 on each
// of the four copies; a peeled copy may carry a fractional factor).
type Probe struct {
	Func      string // function that defines the probe (pre-inlining)
	ID        int32  // 1-based probe index within Func
	Kind      ProbeKind
	Factor    float64    // duplication factor; 1.0 by default
	InlinedAt *ProbeSite // inline context, nil if not inlined
}

// Operands holds the operands few instructions have: the symbol of OpCall
// (the callee), OpFuncRef (the referenced function), OpLoadG and OpStoreG
// (the global), and the arguments of OpCall and OpICall. A call's record
// belongs to its instruction: the clone paths give every cloned call a
// fresh one, so its callee and arguments may be rewritten in place. A
// record that only names a global or a function is immutable and may be
// shared, like Loc and Probe payloads.
type Operands struct {
	Sym  string
	Args []Reg
}

// Instr is a single (non-terminator) IR instruction. The pointer-carrying
// fields come first, so the collector scans 24 of its 56 bytes, and the
// scalars follow by size, so only the last byte is padding. DESIGN.md
// "Instruction records" gives the fields each opcode uses.
type Instr struct {
	// Ext holds the symbol and call arguments out of line; it is nil on
	// every opcode that has neither. Read them through Sym and Args.
	Ext   *Operands
	Probe *Probe // OpProbe payload, or call-site probe for OpCall
	Loc   *Loc

	Value   int64 // OpConst immediate; OpCounter counter index
	Dst     Reg   // NoReg when the result is unused/absent
	A, B, C Reg   // generic operands (C used by OpSelect)
	Index   Reg   // OpLoadG/OpStoreG array index (NoReg = scalar)
	Op      Opcode
	BinKind BinKind
	// TailCall marks an OpCall that tail-call elimination proved can reuse
	// the caller's frame; codegen emits a frame-replacing jump and the
	// block's trailing return of the call result is suppressed.
	TailCall bool
}

// Sym returns the instruction's one symbol operand: the callee of OpCall,
// the referenced function of OpFuncRef, the global of OpLoadG and OpStoreG.
// Every other opcode has none and gets "".
func (in *Instr) Sym() string {
	if in.Ext == nil {
		return ""
	}
	return in.Ext.Sym
}

// Args returns the arguments of OpCall and OpICall; nil for every other
// opcode.
func (in *Instr) Args() []Reg {
	if in.Ext == nil {
		return nil
	}
	return in.Ext.Args
}

// TermKind enumerates block terminator kinds.
type TermKind uint8

// Terminator kinds.
const (
	TermJump TermKind = iota
	TermBranch
	TermSwitch
	TermReturn
)

// Terminator ends a basic block. Succs holds the successor blocks:
// Jump has 1; Branch has 2 (taken/true first, not-taken/false second);
// Switch has len(Cases)+1 with the default successor last.
type Terminator struct {
	Kind  TermKind
	Cond  Reg // Branch condition / Switch scrutinee
	Val   Reg // Return value (NoReg = return 0)
	Succs []*Block
	Cases []int64 // Switch case values, parallel to Succs[:len(Cases)]
	// EdgeW are profile edge weights parallel to Succs, maintained by
	// profile annotation and by optimizer profile-update code.
	EdgeW []uint64
	Loc   *Loc
}

// Block is a basic block: a straight-line instruction sequence plus one
// terminator. Preds is maintained by Function.RebuildCFG.
type Block struct {
	ID     int
	Instrs []Instr
	Term   Terminator
	Preds  []*Block

	// Weight is the profile execution count annotated on the block.
	Weight uint64
	// HasWeight distinguishes "annotated zero" from "no profile".
	HasWeight bool

	// Cold marks the block for the cold section during function splitting.
	Cold bool
}

// Function is a single IR function. Blocks[0] is the entry block.
type Function struct {
	Name      string
	Params    []string // parameter names; parameter i lives in register i
	NRegs     int      // number of virtual registers
	Blocks    []*Block
	Module    string // ThinLTO-style module (source file) this function lives in
	StartLine int32  // source line of the func declaration
	GUID      uint64 // content-independent identity hash of Name
	Checksum  uint64 // CFG-shape checksum, set by the probe-insertion pass
	NumProbes int32  // probes allocated by the probe-insertion pass
	// SummarySize is the function's pre-optimization instruction count —
	// the ThinLTO summary size that governs cross-module importability
	// (recorded before any transformation inflates the body).
	SummarySize int

	// EntryCount is the annotated profile entry count (calls to this function).
	EntryCount uint64
	HasProfile bool

	nextBlockID int
}

// NewFunction returns an empty function with an entry block.
func NewFunction(name string, params []string) *Function {
	f := &Function{Name: name, Params: params, NRegs: len(params), GUID: GUIDFor(name)}
	f.NewBlock()
	return f
}

// Entry returns the function entry block.
func (f *Function) Entry() *Block { return f.Blocks[0] }

// NewBlock appends a fresh empty block and returns it.
func (f *Function) NewBlock() *Block {
	b := &Block{ID: f.nextBlockID}
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewReg allocates a fresh virtual register.
func (f *Function) NewReg() Reg {
	r := Reg(f.NRegs)
	f.NRegs++
	return r
}

// adoptBlock registers an externally-created block (used by cloning code)
// and assigns it a fresh ID.
func (f *Function) adoptBlock(b *Block) {
	b.ID = f.nextBlockID
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
}

// Global is a module-level scalar or array of int64.
type Global struct {
	Name string
	Size int // number of elements; 1 for scalars
	Init []int64
}

// Program is a whole compilation unit: functions plus globals.
type Program struct {
	Funcs   map[string]*Function
	Order   []string // deterministic function order (definition order)
	Globals map[string]*Global
	GOrder  []string
	// DroppedChecksums preserves the CFG checksums of functions removed
	// after being fully inlined: their probe metadata (and staleness
	// defense) must survive even though no standalone body is emitted.
	DroppedChecksums map[string]uint64
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{Funcs: map[string]*Function{}, Globals: map[string]*Global{}}
}

// AddFunc registers a function, preserving definition order.
func (p *Program) AddFunc(f *Function) {
	if _, ok := p.Funcs[f.Name]; !ok {
		p.Order = append(p.Order, f.Name)
	}
	p.Funcs[f.Name] = f
}

// AddGlobal registers a global, preserving definition order.
func (p *Program) AddGlobal(g *Global) {
	if _, ok := p.Globals[g.Name]; !ok {
		p.GOrder = append(p.GOrder, g.Name)
	}
	p.Globals[g.Name] = g
}

// Functions returns the functions in definition order.
func (p *Program) Functions() []*Function {
	out := make([]*Function, 0, len(p.Order))
	for _, n := range p.Order {
		out = append(out, p.Funcs[n])
	}
	return out
}

// GUIDFor hashes a function name to a stable 64-bit GUID (FNV-1a).
func GUIDFor(name string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	return h
}
