package analysis

import "csspgo/internal/ir"

// BitSet is a dense fixed-width bit vector, the lattice element of the
// dataflow solver.
type BitSet []uint64

// NewBitSet returns an all-zero set able to hold n bits.
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Set sets bit i.
func (s BitSet) Set(i int) { s[i/64] |= 1 << (i % 64) }

// Clear clears bit i.
func (s BitSet) Clear(i int) { s[i/64] &^= 1 << (i % 64) }

// Has reports whether bit i is set.
func (s BitSet) Has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

// fill sets the first n bits.
func (s BitSet) fill(n int) {
	for i := 0; i < n; i++ {
		s.Set(i)
	}
}

// Clone copies the set.
func (s BitSet) Clone() BitSet { return append(BitSet(nil), s...) }

// Union ors o into s, reporting whether s changed.
func (s BitSet) Union(o BitSet) bool {
	changed := false
	for i := range s {
		n := s[i] | o[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// intersect ands o into s, reporting whether s changed.
func (s BitSet) intersect(o BitSet) bool {
	changed := false
	for i := range s {
		n := s[i] & o[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// meet combines predecessor out-values in a forward dataflow problem.
type meet uint8

// Meet operators: union for may-analyses (reaching definitions), intersect
// for must-analyses (definite assignment).
const (
	meetUnion meet = iota
	meetIntersect
)

// forwardProblem describes a forward dataflow problem over a function's
// reachable blocks. All sets have Bits bits.
type forwardProblem struct {
	Bits  int
	Meet  meet
	Entry BitSet // boundary in-value of the entry block
	// Transfer computes the out-value of b from its in-value. It must not
	// retain or mutate in; write the result into the provided out set
	// (pre-zeroed).
	Transfer func(b *ir.Block, in, out BitSet)
}

// solveForward computes the fixed point of the problem and returns each
// reachable block's in-value. The iteration is over reverse post-order,
// which converges in a couple of sweeps for reducible CFGs.
func solveForward(f *ir.Function, prob forwardProblem) map[*ir.Block]BitSet {
	rpo := f.ReachableOrder()
	f.RebuildCFG()
	reach := make(map[*ir.Block]bool, len(rpo))
	for _, b := range rpo {
		reach[b] = true
	}

	in := make(map[*ir.Block]BitSet, len(rpo))
	out := make(map[*ir.Block]BitSet, len(rpo))
	for _, b := range rpo {
		in[b] = NewBitSet(prob.Bits)
		out[b] = NewBitSet(prob.Bits)
		if prob.Meet == meetIntersect && b != f.Entry() {
			// A must-analysis starts at top and descends to the greatest
			// fixed point. Out-values must start at top too: otherwise a
			// not-yet-visited back-edge predecessor contributes ⊥ on the
			// first sweep and wrongly kills facts that do hold on the loop.
			in[b].fill(prob.Bits)
			out[b].fill(prob.Bits)
		}
	}
	copy(in[f.Entry()], prob.Entry)

	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b != f.Entry() {
				first := true
				for _, p := range b.Preds {
					if !reach[p] {
						continue
					}
					if first {
						copy(in[b], out[p])
						first = false
					} else if prob.Meet == meetUnion {
						in[b].Union(out[p])
					} else {
						in[b].intersect(out[p])
					}
				}
			}
			next := NewBitSet(prob.Bits)
			prob.Transfer(b, in[b], next)
			for i := range next {
				if next[i] != out[b][i] {
					copy(out[b], next)
					changed = true
					break
				}
			}
		}
	}
	return in
}
