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

import (
	"csspgo/internal/machine"
	"csspgo/internal/sim"
)

// Range is a linear execution range [Begin, End]: every instruction whose
// address lies in the closed interval executed exactly once when the range
// was recorded.
type Range struct {
	Begin, End uint64
}

// Valid reports whether the range is plausible on the given binary: both
// ends map to instructions inside the same function section.
func (r Range) Valid(bin *machine.Prog) bool {
	if r.Begin > r.End {
		return false
	}
	if bin.InstrAt(r.Begin) == nil || bin.InstrAt(r.End) == nil {
		return false
	}
	fb, fe := bin.FuncAt(r.Begin), bin.FuncAt(r.End)
	return fb != nil && fb == fe
}

// AppendLBRRanges derives the linear execution ranges from one LBR snapshot
// (newest entry first): for consecutive records b[i] (newer) and b[i+1]
// (older), execution ran linearly from b[i+1].To to b[i].From. Invalid
// ranges (e.g. truncated LBR tails) are dropped. Ranges are appended into
// dst (reusing its backing array), for hot loops that process one sample at
// a time.
func AppendLBRRanges(dst []Range, bin *machine.Prog, lbr []sim.BranchRec) []Range {
	for i := 0; i+1 < len(lbr); i++ {
		r := Range{Begin: lbr[i+1].To, End: lbr[i].From}
		if r.Valid(bin) {
			dst = append(dst, r)
		}
	}
	return dst
}

// AddrCounter accumulates per-instruction execution counts from ranges.
// Counts live in a dense slice indexed by instruction index (the text
// segment is contiguous and known up front), so the hot AddRange loop is a
// slice walk with no hashing and the shard-merge reduction is a vector add.
type AddrCounter struct {
	bin    *machine.Prog
	counts []uint64 // indexed by instruction index
}

// NewAddrCounter returns an empty counter over bin.
func NewAddrCounter(bin *machine.Prog) *AddrCounter {
	return &AddrCounter{bin: bin, counts: make([]uint64, len(bin.Instrs))}
}

// AddRange adds w to every instruction address covered by r.
func (c *AddrCounter) AddRange(r Range, w uint64) {
	lo, hi := c.bin.InstrsIn(r.Begin, r.End)
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

// Each calls fn for every instruction with a non-zero count, in address
// order.
func (c *AddrCounter) Each(fn func(addr uint64, count uint64)) {
	for i, n := range c.counts {
		if n != 0 {
			fn(c.bin.Instrs[i].Addr, n)
		}
	}
}
