package sim

// CostParams is the cycle cost model. The defaults are x86-server-flavoured
// and deliberately make the classic PGO levers matter: call overhead
// (inlining), taken-branch bubbles and i-cache locality (block layout,
// function splitting), mispredicts (branch bias), and counter increments
// (instrumentation overhead).
type CostParams struct {
	BaseCPI         uint64 // cycles per retired instruction
	TakenBranch     uint64 // front-end redirect bubble for any taken branch
	Mispredict      uint64 // extra cycles on conditional mispredict
	ICacheMiss      uint64 // i-cache line miss penalty
	CallOverhead    uint64 // frame setup beyond the call instruction
	RetOverhead     uint64
	ArgCost         uint64 // per-argument move cost
	CounterCost     uint64 // instrumentation counter RMW
	ICacheBytes     int    // total i-cache capacity
	ICacheLineBytes int
	ICacheWays      int

	// Sampling-interrupt cost: the PMI dispatch itself plus the
	// frame-pointer walk per stack frame captured. Both default to 0 so
	// cycle counts stay comparable across the existing experiments; the
	// overhead observatory enables them via ProfilingCostParams to make
	// the cost of profiling itself visible.
	SampleInterrupt uint64 // fixed cycles per sampling interrupt
	SampleFrame     uint64 // cycles per stack frame walked in the interrupt
}

// DefaultCostParams returns the calibrated default model.
func DefaultCostParams() CostParams {
	return CostParams{
		BaseCPI:         1,
		TakenBranch:     1,
		Mispredict:      14,
		ICacheMiss:      12,
		CallOverhead:    2,
		RetOverhead:     1,
		ArgCost:         1,
		CounterCost:     5,
		ICacheBytes:     8 * 1024,
		ICacheLineBytes: 64,
		ICacheWays:      2,
	}
}

// ProfilingCostParams returns the default model with the sampling-interrupt
// costs enabled: a PMI dispatch plus a per-frame unwind charge. Use it when
// the point of the run is to measure what profiling itself costs (the
// overhead observatory, the Pareto sweep); everything else keeps the
// zero-cost defaults so cycle counts stay pinned.
func ProfilingCostParams() CostParams {
	p := DefaultCostParams()
	p.SampleInterrupt = 250
	p.SampleFrame = 8
	return p
}

// icache is a set-associative instruction cache with LRU replacement. The
// ways of set i are lines[i*ways : (i+1)*ways]. slot maps every line of the
// text segment to the entry of lines that holds it (-1 when not resident),
// so a hit — nearly every access — touches one entry instead of walking
// the set.
type icache struct {
	lines     []icLine
	slot      []int32
	firstLine uint64
	ways      int
	lineBits  uint
	setMask   uint64
	tick      uint64
}

// icLine is one cache entry; used is the tick of its last access, 0 while
// the entry is empty.
type icLine struct {
	tag  uint64
	used uint64
}

// newICache builds the cache for a text segment spanning [lo, hi].
func newICache(p CostParams, lo, hi uint64) *icache {
	lineBits := uint(0)
	for 1<<lineBits < p.ICacheLineBytes {
		lineBits++
	}
	nsets := p.ICacheBytes / p.ICacheLineBytes / p.ICacheWays
	if nsets < 1 {
		nsets = 1
	}
	c := &icache{
		lines:     make([]icLine, nsets*p.ICacheWays),
		slot:      make([]int32, hi>>lineBits-lo>>lineBits+1),
		firstLine: lo >> lineBits,
		ways:      p.ICacheWays,
		lineBits:  lineBits,
		setMask:   uint64(nsets - 1),
	}
	for i := range c.slot {
		c.slot[i] = -1
	}
	return c
}

// hit touches the line containing addr and reports whether it is resident;
// when it is not, the caller charges the miss and calls fill. Split this way
// hit inlines into Run's loop and only misses make a call.
func (c *icache) hit(addr uint64) bool {
	c.tick++
	s := c.slot[addr>>c.lineBits-c.firstLine]
	if s < 0 {
		return false
	}
	c.lines[s].used = c.tick
	return true
}

// fill brings the line containing addr, which just missed, in over its
// set's least recently used way (the lowest-numbered one among equals).
func (c *icache) fill(addr uint64) {
	line := addr >> c.lineBits
	first := int(line&c.setMask) * c.ways
	victim, oldest := first, ^uint64(0)
	for i := first; i < first+c.ways; i++ {
		if c.lines[i].used < oldest {
			oldest = c.lines[i].used
			victim = i
		}
	}
	if v := &c.lines[victim]; v.used != 0 {
		c.slot[v.tag-c.firstLine] = -1
	}
	c.lines[victim] = icLine{tag: line, used: c.tick}
	c.slot[line-c.firstLine] = int32(victim)
}
