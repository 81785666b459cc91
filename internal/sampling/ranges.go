// Package sampling turns raw PMU samples (synchronized LBR + stack
// snapshots from internal/sim) into PGO profiles. It implements both
// correlation strategies the paper compares:
//
//   - debug-info (line) correlation with AutoFDO's max-heuristic, which
//     mis-handles code duplication (§III.A);
//   - pseudo-probe correlation, which sums counts across duplicated probe
//     copies and verifies CFG checksums;
//
// and the paper's context-sensitive profiling methodology: the Algorithm 1
// virtual unwinder that recovers the calling context of every LBR range
// from the synchronized stack sample, plus the missing-frame inferrer that
// repairs stacks broken by tail-call elimination.
package sampling

import "csspgo/internal/machine"

// addrRange is a linear execution range [Begin, End]: every instruction whose
// address lies in the closed interval executed exactly once when the range
// was recorded.
type addrRange struct {
	Begin, End uint64
}

// Valid reports whether the range is plausible on the given binary: both
// ends map to instructions inside the same function section.
func (r addrRange) Valid(bin *machine.Prog) bool {
	ix := bin.Index()
	_, _, fn := resolveRange(ix, r.Begin, r.End, ix.InstrIndexAt(r.End))
	return fn != nil
}

// resolveRange looks a range up once: the instruction-index interval
// [lo, hi) it covers and the function both of its ends lie in, or fn == nil
// when the range is not valid. endIdx is InstrIndexAt(end), which every
// caller already has from decoding the branch record that ends the range.
func resolveRange(ix *machine.Index, begin, end uint64, endIdx int) (lo, hi int32, fn *machine.Func) {
	if begin > end || endIdx < 0 {
		return 0, 0, nil
	}
	beginIdx := ix.InstrIndexAt(begin)
	if beginIdx < 0 {
		return 0, 0, nil
	}
	fn = ix.FuncAt(begin)
	if fn == nil || ix.FuncAt(end) != fn {
		return 0, 0, nil
	}
	// Both ends are instruction starts, so [beginIdx, endIdx] is exactly
	// this interval.
	return int32(beginIdx), int32(endIdx) + 1, fn
}

// AddrCounter accumulates per-instruction execution counts from ranges.
// Counts live in a dense slice indexed by instruction index (the text
// segment is contiguous and known up front), so the hot addInstrs loop is a
// slice walk with no hashing and the shard-merge reduction is a vector add.
type AddrCounter struct {
	bin    *machine.Prog
	counts []uint64 // indexed by instruction index
}

// newAddrCounter returns an empty counter over bin.
func newAddrCounter(bin *machine.Prog) *AddrCounter {
	return &AddrCounter{bin: bin, counts: make([]uint64, len(bin.Instrs))}
}

// addInstrs adds w to every instruction of a resolved range [lo, hi).
func (c *AddrCounter) addInstrs(lo, hi int32, w uint64) {
	for i := lo; i < hi; i++ {
		c.counts[i] += w
	}
}

// Merge sums another counter's counts into c (shard reduction; both
// counters must be over the same binary).
func (c *AddrCounter) Merge(o *AddrCounter) {
	for i, n := range o.counts {
		c.counts[i] += n
	}
}

// Count returns the accumulated count at addr (0 for non-instruction
// addresses).
func (c *AddrCounter) Count(addr uint64) uint64 {
	i := c.bin.InstrIndexAt(addr)
	if i < 0 {
		return 0
	}
	return c.counts[i]
}

// each calls fn for every instruction with a non-zero count, in address
// order.
func (c *AddrCounter) each(fn func(addr uint64, count uint64)) {
	for i, n := range c.counts {
		if n != 0 {
			fn(c.bin.Instrs[i].Addr, n)
		}
	}
}
