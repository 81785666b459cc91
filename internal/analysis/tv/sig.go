package tv

import (
	"fmt"
	"sort"
	"strings"

	"csspgo/internal/analysis"
	"csspgo/internal/ir"
)

// Symbolic block signatures: each block is normalized into the sequence of
// observable effects it performs, its terminator behavior, and the values
// it leaves in live-out registers — every value a symbolic expression over
// the block's entry state. Two blocks with equal signatures are externally
// indistinguishable, whatever their internal instruction sequence: dead
// code, re-numbered temporaries, reordered pure computation and redundant
// moves all normalize away, because only values reachable from an effect,
// the terminator or a live-out register are serialized.
//
// Input and output registers are matched concretely (register identity is
// function-global in this non-SSA IR, and the structure-preserving passes
// this tier covers never rename); block-internal temporaries are matched
// purely structurally. Symbolic values are hash-consed into a DAG and
// serialized with back-references, so chained reuse (x = x+x; x = x+x; ...)
// stays linear instead of exploding exponentially.

// node is one hash-consed symbolic value.
type node struct {
	id   int
	op   string // "in", "const", or an operator tag like "bin:add"
	reg  ir.Reg // "in" leaf: the entry register
	val  int64  // "const" payload
	args []*node
}

// blockEval symbolically evaluates one block.
type blockEval struct {
	interned map[string]*node
	nextID   int
	env      map[ir.Reg]*node
	memEpoch int // bumps on every store/call; versions load values
}

func newBlockEval() *blockEval {
	return &blockEval{interned: map[string]*node{}, env: map[ir.Reg]*node{}}
}

func (e *blockEval) intern(op string, reg ir.Reg, val int64, args ...*node) *node {
	var key strings.Builder
	fmt.Fprintf(&key, "%s|%d|%d", op, reg, val)
	for _, a := range args {
		fmt.Fprintf(&key, "|%d", a.id)
	}
	if n, ok := e.interned[key.String()]; ok {
		return n
	}
	n := &node{id: e.nextID, op: op, reg: reg, val: val, args: args}
	e.nextID++
	e.interned[key.String()] = n
	return n
}

// value reads a register's current symbolic value, creating an entry leaf
// on first use.
func (e *blockEval) value(r ir.Reg) *node {
	if n, ok := e.env[r]; ok {
		return n
	}
	n := e.intern("in", r, 0)
	e.env[r] = n
	return n
}

// effectRec is one ordered observable (or ordering-relevant) event of a
// block: a store, a counter increment, or a call. Probes are omitted — they
// must be observationally invisible, so signatures ignore them.
type effectRec struct {
	kind string // "store", "counter", "call", "icall"
	name string // global (store) / callee (call) / counter index (counter)
	args []*node
}

// blockSummary is a block's normalized behavior before serialization.
type blockSummary struct {
	effects []effectRec
	term    effectRec // kind "jump"/"br"/"switch"/"ret"; name carries cases
	outs    []ir.Reg  // live-out registers the block assigns, sorted
	outVals map[ir.Reg]*node
}

// eval runs the symbolic evaluation of b.
func (e *blockEval) eval(b *ir.Block) blockSummary {
	var sum blockSummary
	for i := range b.Instrs {
		in := &b.Instrs[i]
		switch in.Op {
		case ir.OpConst:
			e.env[in.Dst] = e.intern("const", ir.NoReg, in.Value)
		case ir.OpMove:
			e.env[in.Dst] = e.value(in.A)
		case ir.OpNot:
			e.env[in.Dst] = e.intern("not", ir.NoReg, 0, e.value(in.A))
		case ir.OpNeg:
			e.env[in.Dst] = e.intern("neg", ir.NoReg, 0, e.value(in.A))
		case ir.OpBin:
			e.env[in.Dst] = e.intern("bin:"+in.BinKind.String(), ir.NoReg, 0,
				e.value(in.A), e.value(in.B))
		case ir.OpSelect:
			e.env[in.Dst] = e.intern("select", ir.NoReg, 0,
				e.value(in.A), e.value(in.B), e.value(in.C))
		case ir.OpFuncRef:
			e.env[in.Dst] = e.intern("funcref:"+in.Callee, ir.NoReg, 0)
		case ir.OpLoadG:
			// Loads are pure but memory-dependent: version the value by the
			// count of prior stores/calls so a load legally reordered across
			// pure code matches, and one illegally moved across a store does
			// not.
			args := []*node{}
			if in.Index != ir.NoReg {
				args = append(args, e.value(in.Index))
			}
			e.env[in.Dst] = e.intern(fmt.Sprintf("load:%s@%d", in.Global, e.memEpoch),
				ir.NoReg, 0, args...)
		case ir.OpStoreG:
			args := []*node{e.value(in.A)}
			if in.Index != ir.NoReg {
				args = append(args, e.value(in.Index))
			}
			sum.effects = append(sum.effects, effectRec{kind: "store", name: in.Global, args: args})
			e.memEpoch++
		case ir.OpCounter:
			sum.effects = append(sum.effects, effectRec{
				kind: "counter", name: fmt.Sprint(in.Value)})
		case ir.OpCall, ir.OpICall:
			var args []*node
			if in.Op == ir.OpICall {
				args = append(args, e.value(in.A))
			}
			for _, a := range in.Args {
				args = append(args, e.value(a))
			}
			kind, name := "call", in.Callee
			if in.Op == ir.OpICall {
				kind, name = "icall", ""
			}
			seq := len(sum.effects)
			sum.effects = append(sum.effects, effectRec{kind: kind, name: name, args: args})
			e.memEpoch++
			if in.Dst != ir.NoReg {
				// The result is opaque, unique to this call occurrence.
				e.env[in.Dst] = e.intern(fmt.Sprintf("ret:%s@%d", name, seq), ir.NoReg, 0)
			}
		case ir.OpProbe:
			// Invisible by contract.
		}
	}

	t := &b.Term
	switch t.Kind {
	case ir.TermJump:
		sum.term = effectRec{kind: "jump"}
	case ir.TermBranch:
		sum.term = effectRec{kind: "br", args: []*node{e.value(t.Cond)}}
	case ir.TermSwitch:
		cases := make([]string, len(t.Cases))
		for i, c := range t.Cases {
			cases[i] = fmt.Sprint(c)
		}
		sum.term = effectRec{kind: "switch", name: strings.Join(cases, ","),
			args: []*node{e.value(t.Cond)}}
	case ir.TermReturn:
		v := e.intern("const", ir.NoReg, 0) // return-without-value yields 0
		if t.Val != ir.NoReg {
			v = e.value(t.Val)
		}
		sum.term = effectRec{kind: "ret", args: []*node{v}}
	}
	sum.outVals = e.env
	return sum
}

// signature serializes the summary: one component per effect, one for the
// terminator, one per live-out assignment. liveOut filters which written
// registers matter; identity writes (register ends holding its own entry
// value) serialize to nothing, matching a block that never touched it.
func signature(b *ir.Block, liveOut analysis.BitSet) []string {
	e := newBlockEval()
	sum := e.eval(b)
	for r := range sum.outVals {
		if r == ir.NoReg || !liveOut.Has(int(r)) {
			continue
		}
		if n := sum.outVals[r]; n.op == "in" && n.reg == r {
			continue // identity: the block left r untouched semantically
		}
		sum.outs = append(sum.outs, r)
	}
	sort.Slice(sum.outs, func(i, j int) bool { return sum.outs[i] < sum.outs[j] })

	s := &serializer{seen: map[*node]int{}}
	var comps []string
	for _, eff := range sum.effects {
		comps = append(comps, s.serEffect(eff))
	}
	comps = append(comps, "term "+s.serEffect(sum.term))
	for _, r := range sum.outs {
		comps = append(comps, fmt.Sprintf("out r%d=%s", r, s.ser(sum.outVals[r])))
	}
	return comps
}

// serializer renders symbolic DAGs with memoized back-references ("@N" =
// the N-th node serialized so far), keeping output linear in DAG size.
type serializer struct {
	seen   map[*node]int
	visits int
}

func (s *serializer) ser(n *node) string {
	if idx, ok := s.seen[n]; ok {
		return fmt.Sprintf("@%d", idx)
	}
	s.seen[n] = s.visits
	s.visits++
	switch n.op {
	case "in":
		return fmt.Sprintf("r%d", n.reg)
	case "const":
		return fmt.Sprintf("$%d", n.val)
	}
	if len(n.args) == 0 {
		return n.op
	}
	parts := make([]string, len(n.args))
	for i, a := range n.args {
		parts[i] = s.ser(a)
	}
	return n.op + "(" + strings.Join(parts, ",") + ")"
}

func (s *serializer) serEffect(e effectRec) string {
	parts := make([]string, len(e.args))
	for i, a := range e.args {
		parts[i] = s.ser(a)
	}
	out := e.kind
	if e.name != "" {
		out += " " + e.name
	}
	if len(e.args) > 0 {
		out += "(" + strings.Join(parts, ",") + ")"
	}
	return out
}

// liveness computes per-block live-out register sets. It is the *strong*
// (transitive) form DCE converges to, not the single-step dataflow: a use by
// an instruction that is itself dead does not keep its operands alive.
// Matching DCE's fixpoint is what makes before/after signatures agree across
// a dead-code-elimination boundary — deleting a dead chain legally shrinks
// the live-out sets of upstream blocks, so the naive analysis would report
// phantom "disappeared output" mismatches. The fixpoint is the validator's
// own statement of what DCE may delete and calls nothing in opt; what an
// instruction reads, writes and must keep comes from ir's operand model,
// which Verify cross-checks.
func liveness(f *ir.Function) map[*ir.Block]analysis.BitSet {
	blocks := f.Blocks
	// dead[b][i]: instruction i of block b is provably dead. Grows each
	// round until no new pure def is found dead under the current sets.
	dead := map[*ir.Block][]bool{}
	for _, b := range blocks {
		dead[b] = make([]bool, len(b.Instrs))
	}

	for {
		liveOut := liveOnce(blocks, f.NRegs, dead)
		changed := false
		for _, b := range blocks {
			live := liveOut[b].Clone()
			markLive := func(r ir.Reg) { live.Set(int(r)) }
			b.Term.Uses(markLive)
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				if dead[b][i] {
					continue
				}
				in := &b.Instrs[i]
				d := in.Def()
				if !in.HasSideEffects() && d != ir.NoReg && !live.Has(int(d)) {
					dead[b][i] = true
					changed = true
					continue
				}
				if d != ir.NoReg {
					live.Clear(int(d))
				}
				in.Uses(markLive)
			}
		}
		if !changed {
			return liveOut
		}
	}
}

// liveOnce is one round of the standard backward liveness dataflow over
// sets of nregs registers, with instructions marked dead contributing
// neither uses nor defs.
func liveOnce(blocks []*ir.Block, nregs int, dead map[*ir.Block][]bool) map[*ir.Block]analysis.BitSet {
	use := map[*ir.Block]analysis.BitSet{}
	def := map[*ir.Block]analysis.BitSet{}
	liveIn := map[*ir.Block]analysis.BitSet{}
	liveOut := map[*ir.Block]analysis.BitSet{}
	for _, b := range blocks {
		u, d := analysis.NewBitSet(nregs), analysis.NewBitSet(nregs)
		addUse := func(r ir.Reg) {
			if !d.Has(int(r)) {
				u.Set(int(r))
			}
		}
		for i := range b.Instrs {
			if dead[b][i] {
				continue
			}
			in := &b.Instrs[i]
			in.Uses(addUse)
			if dst := in.Def(); dst != ir.NoReg {
				d.Set(int(dst))
			}
		}
		b.Term.Uses(addUse)
		use[b], def[b] = u, d
		liveIn[b], liveOut[b] = analysis.NewBitSet(nregs), analysis.NewBitSet(nregs)
	}

	for changed := true; changed; {
		changed = false
		for i := len(blocks) - 1; i >= 0; i-- {
			b := blocks[i]
			out := liveOut[b]
			for _, s := range b.Term.Succs {
				if out.Union(liveIn[s]) {
					changed = true
				}
			}
			// in = use ∪ (out − def)
			next := out.Clone()
			for w := range next {
				next[w] = next[w]&^def[b][w] | use[b][w]
			}
			if liveIn[b].Union(next) {
				changed = true
			}
		}
	}
	return liveOut
}
