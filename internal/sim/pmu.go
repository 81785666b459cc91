package sim

// This file models the performance-monitoring unit: LBR (Last Branch
// Record) snapshots of the most recent taken branches, synchronized
// call-stack sampling, PEBS-style precision control, and the sampling
// countdown driven by retired-taken-branch events — the
// `perf record -e br_inst_retired.near_taken:upp -g --call-graph fp`
// configuration the paper uses (§III.B).

// BranchRec is one LBR entry: a retired taken branch.
type BranchRec struct {
	From uint64
	To   uint64
}

// Sample is one synchronized PMU sample: the LBR snapshot (newest entry
// first, as Algorithm 1 consumes it) plus a frame-pointer call-stack
// snapshot (leaf first: current PC, then return addresses outward).
type Sample struct {
	LBR   []BranchRec
	Stack []uint64
}

// PMUConfig configures sampling.
type PMUConfig struct {
	// SamplePeriod is the number of retired taken branches between
	// samples; 0 disables sampling entirely.
	SamplePeriod uint64
	// LBRDepth is the LBR register depth (16 or 32 on real parts).
	LBRDepth int
	// PEBS enables precise event-based sampling: the stack snapshot is
	// taken exactly at the sampled branch. When false, the stack snapshot
	// reflects machine state just *before* the last recorded branch, so it
	// can lag the LBR by one frame across calls/returns — the skid the
	// paper observed.
	PEBS bool
	// SampleStacks enables synchronized stack sampling (CSSPGO). AutoFDO
	// profiling collects LBR only.
	SampleStacks bool
	// Jitter pseudo-randomizes the period ±12.5% to avoid lockstep with
	// loops, seeded deterministically.
	Jitter bool
	Seed   uint64
}

// DefaultPMUConfig returns a CSSPGO-style profiling configuration.
func DefaultPMUConfig(period uint64) PMUConfig {
	return PMUConfig{
		SamplePeriod: period,
		LBRDepth:     16,
		PEBS:         true,
		SampleStacks: true,
		Jitter:       true,
		Seed:         0x5eed,
	}
}

type pmu struct {
	cfg       PMUConfig
	lbr       []BranchRec // ring, lbrPos = next write
	lbrPos    int
	lbrFull   bool
	countdown uint64
	rng       uint64
	samples   []Sample

	// Streaming mode (see sink.go): when sink is non-nil, samples go into
	// pooled chunks handed to the sink instead of the samples slice.
	sink      SampleSink
	chunkSize int
	chunk     *SampleChunk
	chunkIdx  int
}

func newPMU(cfg PMUConfig) *pmu {
	p := &pmu{cfg: cfg}
	if cfg.LBRDepth <= 0 {
		p.cfg.LBRDepth = 16
	}
	p.lbr = make([]BranchRec, p.cfg.LBRDepth)
	p.rng = cfg.Seed | 1
	p.countdown = p.nextPeriod()
	return p
}

func (p *pmu) nextPeriod() uint64 {
	if p.cfg.SamplePeriod == 0 {
		return ^uint64(0)
	}
	period := p.cfg.SamplePeriod
	if p.cfg.Jitter {
		// xorshift64
		p.rng ^= p.rng << 13
		p.rng ^= p.rng >> 7
		p.rng ^= p.rng << 17
		span := period / 4
		if span > 0 {
			period = period - span/2 + p.rng%span
		}
	}
	if period == 0 {
		period = 1
	}
	return period
}

// recordBranch pushes a taken branch into the LBR and runs the sampling
// counter; it returns true when the counter reaches zero, and the caller
// then asks rearm whether that is a sample. It is small enough to inline
// into Run's loop, so only the sampled branch (and, with sampling off, one
// branch in 2^64) leaves it.
func (p *pmu) recordBranch(from, to uint64) bool {
	p.lbr[p.lbrPos] = BranchRec{From: from, To: to}
	p.lbrPos++
	if p.lbrPos == len(p.lbr) {
		p.lbrPos = 0
		p.lbrFull = true
	}
	p.countdown--
	return p.countdown == 0
}

// rearm restarts the sampling counter and reports whether sampling is on.
func (p *pmu) rearm() bool {
	p.countdown = p.nextPeriod()
	return p.cfg.SamplePeriod != 0
}

// snapshotLBR returns the LBR contents newest-first, in one allocation.
func (p *pmu) snapshotLBR() []BranchRec {
	return p.snapshotLBRInto(make([]BranchRec, 0, len(p.lbr)))
}

// snapshotLBRInto appends the LBR contents newest-first to dst (reusing its
// backing array) and returns the result.
func (p *pmu) snapshotLBRInto(dst []BranchRec) []BranchRec {
	n := p.lbrPos
	if p.lbrFull {
		n = len(p.lbr)
	}
	for i := 0; i < n; i++ {
		idx := p.lbrPos - 1 - i
		if idx < 0 {
			idx += len(p.lbr)
		}
		dst = append(dst, p.lbr[idx])
	}
	return dst
}

func (p *pmu) takeSample(stack []uint64) {
	if p.sink != nil {
		p.takeSampleStreaming(stack)
		return
	}
	s := Sample{LBR: p.snapshotLBR()}
	if p.cfg.SampleStacks {
		s.Stack = append([]uint64(nil), stack...)
	}
	p.samples = append(p.samples, s)
}

// takeSampleStreaming writes the sample into the current pooled chunk,
// reusing the slot's LBR/Stack backing arrays, and hands the chunk to the
// sink when it reaches the configured chunk size.
func (p *pmu) takeSampleStreaming(stack []uint64) {
	if p.chunk == nil {
		p.chunk = getChunk()
		p.chunk.Index = p.chunkIdx
	}
	s := p.chunk.appendSlot(p.chunkSize)
	s.LBR = p.snapshotLBRInto(s.LBR[:0])
	s.Stack = s.Stack[:0]
	if p.cfg.SampleStacks {
		s.Stack = append(s.Stack, stack...)
	}
	if len(p.chunk.Samples) >= p.chunkSize {
		p.flushChunk()
	}
}

// flushChunk delivers the buffered chunk (possibly partial) to the sink.
func (p *pmu) flushChunk() {
	if p.sink == nil || p.chunk == nil || len(p.chunk.Samples) == 0 {
		return
	}
	ch := p.chunk
	p.chunk = nil
	p.chunkIdx++
	p.sink.ConsumeChunk(ch)
}
