package sampling

// The profile-generation engine. Every generator consumes sample chunks
// (sim.SampleSink): a live PMU hands over fixed-size chunks as the
// simulation runs, and a Generate* function hands over a materialized sample
// set, by default as one chunk. The dispatcher groups each chunk and sends
// shares of its distinct samples down a channel to per-worker collectors,
// each of which takes its share through unwind → attribute and folds the
// results into compact per-worker state, so peak memory is bounded by the
// chunk backlog plus the number of *distinct* calling contexts — not the
// sample count. Workers: 1 is the serial case.
//
// Aggregate first. A hot loop hands the PMU the same branch history and the
// same stack again and again, so the dispatcher first groups a chunk's
// samples by exact content (sampleGrouper), on the goroutine that feeds the
// stream, and the workers then scan, unwind and attribute each distinct
// sample once with the group's size n as its weight: the cost of a chunk
// follows its distinct histories, not its samples. The grouping scope is
// the chunk, so a materialized slice unwinds each distinct sample exactly
// once.
//
// Determinism. Every profile count is a sum and serialization sorts, so the
// output is byte-identical for any worker count and chunk size:
//
//   - Profile counts: each (context, probe) pair accumulates an occurrence
//     count per worker, n per distinct sample; worker tables merge by
//     summation and the final count is weight × occurrences — the sum a
//     per-sample loop builds one range at a time, grouped differently.
//   - Tail-call graph: the graph keeps the first edge observation in stream
//     order. Workers see shares out of order, so each records the earliest
//     (chunk, sample, branch) position it saw per edge and the merge takes
//     the global minimum. A group stands at the position of its first
//     occurrence: the copies carry the same records at later positions, so
//     they can never be the minimum.
//   - unwinder stats: per-sample stats are position-independent sums (a
//     group adds n). Context-resolution stats (MissingFrameEvents & co.)
//     are defined per lookup, and every lookup of a raw context resolves
//     it the same way: workers count lookups during ingestion, and Finish
//     resolves each distinct context once and adds its delta × lookups.
//
// Deferred context resolution is the other half of the throughput: a
// per-sample loop resolves a context with contextOf once per range, while
// the engine counts each range under its raw context (callers, leaf) in a
// per-worker table found by content (pendingTable) and resolves each
// distinct raw context exactly once at Finish, after the complete tail-call
// graph is known. That per-sample loop
// survives as the test-only oracle in reference_test.go; committed golden
// profiles (internal/pgo/testdata/golden) pin the engine's bytes.

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"csspgo/internal/ir"
	"csspgo/internal/machine"
	"csspgo/internal/obs"
	"csspgo/internal/profdata"
	"csspgo/internal/sim"
)

// probeWeight converts a probe's duplication factor into the per-occurrence
// sample weight (round half up; fractional factors accumulate
// probabilistically but never drop to zero outright).
func probeWeight(factor float64) uint64 {
	w := uint64(factor + 0.5)
	if factor > 0 && factor < 1 {
		w = 1
	}
	return w
}

// streamPos totally orders samples and LBR records across chunk
// boundaries, independent of which worker processed the chunk.
type streamPos struct {
	chunk, samp, br int
}

func (a streamPos) before(b streamPos) bool {
	if a.chunk != b.chunk {
		return a.chunk < b.chunk
	}
	if a.samp != b.samp {
		return a.samp < b.samp
	}
	return a.br < b.br
}

type edgeKey struct{ from, to string }

// tailObs is one worker's earliest observation of a dynamic tail-call edge.
type tailObs struct {
	site uint64
	pos  streamPos
}

// rangeKey identifies a covered instruction-index range [lo, hi); ranges
// repeat constantly in a sample stream, so occurrences aggregate under this
// key and the per-instruction probe expansion runs once per distinct range
// at Finish instead of once per sample.
type rangeKey struct{ lo, hi int32 }

// fewRanges is how many distinct ranges a pending context counts in place
// before it spills to a map. Most contexts of a sample stream cover only a
// handful of ranges, and a linear search of that many beats a map probe.
const fewRanges = 8

// rangeCount is one covered range and its occurrences.
type rangeCount struct {
	rangeKey
	occ uint64
}

// pendingCtx aggregates everything observed under one raw calling context
// (callers, leaf) before the context itself is resolved: how many ranges
// looked the context up (the stat-replay multiplier), and how often each
// instruction range executed under it — the first fewRanges distinct
// ranges in few, any others in more.
type pendingCtx struct {
	hash    uint64 // hashContext(callers, leaf)
	callers []uint64
	leaf    *machine.Func
	lookups int
	nFew    int
	few     [fewRanges]rangeCount
	more    map[rangeKey]uint64 // nil until a context covers more than fewRanges ranges
}

// count adds occ occurrences of the range rk.
func (pc *pendingCtx) count(rk rangeKey, occ uint64) {
	for i := range pc.few[:pc.nFew] {
		if pc.few[i].rangeKey == rk {
			pc.few[i].occ += occ
			return
		}
	}
	if pc.nFew < fewRanges {
		pc.few[pc.nFew] = rangeCount{rk, occ}
		pc.nFew++
		return
	}
	if pc.more == nil {
		pc.more = map[rangeKey]uint64{}
	}
	pc.more[rk] += occ
}

// hashContext mixes a raw context's callers, their count and the leaf's
// function ID.
func hashContext(callers []uint64, leaf *machine.Func) uint64 {
	h := mix(uint64(len(callers)), uint64(leaf.ID))
	for _, a := range callers {
		h = mix(h, a)
	}
	return h
}

// pendingTable is one worker's pending contexts, found by content in the
// idiom of sampleGrouper: the hash picks where to look in an open-addressed
// index, and a context matches only after its leaf is the same function and
// its callers compare equal word for word, so a colliding hash can cost a
// probe, never a count. Contexts stay in ctxs in order of first lookup.
type pendingTable struct {
	slots []int32 // 1 + index into ctxs; 0 = empty
	ctxs  []*pendingCtx
}

// find returns the slot that holds the context (h, callers, leaf), or the
// empty slot where it belongs.
func (t *pendingTable) find(h uint64, callers []uint64, leaf *machine.Func) *int32 {
	mask := uint64(len(t.slots) - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		i := t.slots[s]
		if i == 0 {
			return &t.slots[s]
		}
		if pc := t.ctxs[i-1]; pc.hash == h && pc.leaf == leaf && slices.Equal(pc.callers, callers) {
			return &t.slots[s]
		}
	}
}

// index returns the index in ctxs of the context (callers, leaf), adding it
// — with its own copy of callers — on first sight.
func (t *pendingTable) index(callers []uint64, leaf *machine.Func) int32 {
	t.reserve()
	h := hashContext(callers, leaf)
	s := t.find(h, callers, leaf)
	if *s == 0 {
		t.ctxs = append(t.ctxs, &pendingCtx{hash: h, callers: slices.Clone(callers), leaf: leaf})
		*s = int32(len(t.ctxs))
	}
	return *s - 1
}

// reserve keeps room for one more context with the index at most half
// full, doubling it (a power of two, so that the hash masks) and
// re-placing every context when it would not be.
func (t *pendingTable) reserve() {
	if 2*(len(t.ctxs)+1) <= len(t.slots) {
		return
	}
	t.slots = make([]int32, max(2*len(t.slots), 64))
	mask := uint64(len(t.slots) - 1)
	for i, pc := range t.ctxs {
		s := pc.hash & mask
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = int32(i + 1)
	}
}

// merge folds another worker's table into t by content: a context t
// already holds sums the other's lookups and range counts into its own,
// and a new one is adopted as it is.
func (t *pendingTable) merge(o *pendingTable) {
	for _, pc := range o.ctxs {
		t.reserve()
		s := t.find(pc.hash, pc.callers, pc.leaf)
		if *s == 0 {
			t.ctxs = append(t.ctxs, pc)
			*s = int32(len(t.ctxs))
			continue
		}
		dst := t.ctxs[*s-1]
		dst.lookups += pc.lookups
		for _, rc := range pc.few[:pc.nFew] {
			dst.count(rc.rangeKey, rc.occ)
		}
		for rk, occ := range pc.more {
			dst.count(rk, occ)
		}
	}
}

// ValidateWorkers rejects worker counts the pool cannot interpret. The CLI
// front-ends call it before building options.
func ValidateWorkers(n int) error {
	if n < 0 {
		return fmt.Errorf("invalid worker count %d: must be >= 0 (0 means one worker per CPU)", n)
	}
	return nil
}

// resolveWorkers maps a requested worker count to the pool size. The
// dispatcher clamps per chunk instead: a chunk goes out in at most
// min(pool size, its distinct samples) shares.
func resolveWorkers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// feedSlice pushes an already-materialized sample slice through a sink: as
// one chunk when chunkSize is 0 (or negative), so that grouping sees the
// whole slice, otherwise in chunks of chunkSize. The chunks borrow the
// caller's memory and are never pooled.
func feedSlice(sink sim.SampleSink, samples []sim.Sample, chunkSize int) {
	if chunkSize <= 0 {
		chunkSize = len(samples)
	}
	for start, idx := 0, 0; start < len(samples); start, idx = start+chunkSize, idx+1 {
		end := min(start+chunkSize, len(samples))
		sink.ConsumeChunk(&sim.SampleChunk{Index: idx, Samples: samples[start:end], Borrowed: true})
	}
}

// ------------------------------------------------------- aggregation

// sampleGroup is one distinct sample of a chunk: the index of its first
// occurrence and the number of samples in the chunk with exactly its LBR
// and stack.
type sampleGroup struct {
	first int32
	n     int32
	hash  uint64
}

// sampleGrouper groups a chunk's samples by exact content. The hash only
// picks where to look in an open-addressed table; a sample joins a group
// only after its LBR and stack compared equal, word for word, to the
// group's first occurrence — a colliding hash can cost a probe, never a
// count. Both slices are reused from chunk to chunk and from stream to
// stream: a grouper lives in a groupedChunk, which grouperPool recycles.
type sampleGrouper struct {
	slots  []int32 // 1 + index into groups; 0 = empty
	groups []sampleGroup
}

// group returns the distinct samples of one chunk in order of first
// occurrence. The result is valid until the next call.
func (g *sampleGrouper) group(samples []sim.Sample) []sampleGroup {
	// At most half full, and a power of two so that the hash masks.
	size := 2
	for size < 2*len(samples) {
		size <<= 1
	}
	if cap(g.slots) < size {
		g.slots = make([]int32, size)
	} else {
		g.slots = g.slots[:size]
		clear(g.slots)
	}
	mask := uint64(size - 1)
	g.groups = g.groups[:0]
	for i := range samples {
		s := &samples[i]
		h := hashSample(s)
		for slot := h & mask; ; slot = (slot + 1) & mask {
			gi := g.slots[slot]
			if gi == 0 {
				g.groups = append(g.groups, sampleGroup{first: int32(i), n: 1, hash: h})
				g.slots[slot] = int32(len(g.groups))
				break
			}
			grp := &g.groups[gi-1]
			if first := &samples[grp.first]; grp.hash == h && slices.Equal(first.LBR, s.LBR) && slices.Equal(first.Stack, s.Stack) {
				grp.n++
				break
			}
		}
	}
	return g.groups
}

// mix folds one word into a multiply-xorshift hash.
func mix(h, w uint64) uint64 {
	h = (h ^ w) * 0x9E3779B97F4A7C15
	return h ^ h>>29
}

// hashSample mixes every word of a sample, and both lengths, so that a
// record moving between the LBR and the stack changes the hash.
func hashSample(s *sim.Sample) uint64 {
	h := mix(uint64(len(s.LBR)), uint64(len(s.Stack)))
	for i := range s.LBR {
		h = mix(mix(h, s.LBR[i].From), s.LBR[i].To)
	}
	for _, a := range s.Stack {
		h = mix(h, a)
	}
	return h
}

// ------------------------------------------------------------ dispatch

// groupedChunk is one chunk in flight with its distinct samples, and the
// number of shares of them still being consumed. The dispatcher takes one
// from grouperPool per chunk; the worker that finishes the chunk's last
// share recycles the chunk and puts the groupedChunk back.
type groupedChunk struct {
	sampleGrouper
	ch   *sim.SampleChunk
	left atomic.Int32
}

var grouperPool = sync.Pool{New: func() any { return new(groupedChunk) }}

func (c *groupedChunk) release() {
	sim.RecycleChunk(c.ch)
	c.ch = nil
	grouperPool.Put(c)
}

// share is one worker's part of a chunk: a contiguous run of its groups.
type share struct {
	c      *groupedChunk
	groups []sampleGroup
}

// dispatcher is the sim.SampleSink half both streams share. ConsumeChunk
// groups the chunk on the feeding goroutine and hands contiguous shares of
// its distinct samples to a fixed pool of workers, so that a distinct sample
// is unwound once per chunk however many workers there are. The counters
// belong to the producer: sim.SampleSink calls ConsumeChunk from one
// goroutine, and the streams read them after wait.
type dispatcher struct {
	pool     int // worker count
	shares   chan share
	wg       sync.WaitGroup
	chunks   int // chunks received
	samples  int // samples in them
	distinct int // groups in them: what the workers unwind
}

// start runs work(i) on one goroutine per worker; work hands its worker's
// consume to receive.
func (d *dispatcher) start(workers int, work func(i int)) {
	d.pool = workers
	// A backlog of 2 shares per worker gives the producer headroom without
	// unbounding memory: every chunk in flight has a share queued or being
	// consumed, so at most 3 chunks per worker (and the one being sent) are.
	d.shares = make(chan share, 2*workers)
	for i := range workers {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			work(i)
		}()
	}
}

// receive passes every share to consume until the stream is finished.
func (d *dispatcher) receive(consume func(share)) {
	for sh := range d.shares {
		consume(sh)
		if sh.c.left.Add(-1) == 0 {
			sh.c.release()
		}
	}
}

// ConsumeChunk groups one chunk and hands contiguous shares of its groups
// to the pool (sim.SampleSink). It blocks when the backlog is full,
// applying backpressure to the producer.
func (d *dispatcher) ConsumeChunk(ch *sim.SampleChunk) {
	c := grouperPool.Get().(*groupedChunk)
	c.ch = ch
	groups := c.group(ch.Samples)
	d.chunks++
	d.samples += len(ch.Samples)
	d.distinct += len(groups)
	// min(workers, groups) shares, but no more than one per live chunk's
	// worth of samples: every worker that takes a share builds its own
	// pending entry for each context the share meets, so splitting a chunk
	// no larger than a live one only duplicates entries — in a live stream
	// the chunks that follow keep the other workers busy.
	n := min(d.pool, len(groups), (len(ch.Samples)+sim.DefaultChunkSize-1)/sim.DefaultChunkSize)
	if n == 0 {
		c.release()
		return
	}
	c.left.Store(int32(n))
	for i := range n {
		d.shares <- share{c, groups[i*len(groups)/n : (i+1)*len(groups)/n]}
	}
}

// wait closes the backlog and returns once every worker has consumed its
// last share.
func (d *dispatcher) wait() {
	close(d.shares)
	d.wg.Wait()
}

// ------------------------------------------------------------- CSSPGO

// csWorker is one streaming worker's private state: an unwinder used for
// range recovery only (context resolution is deferred), the pending-context
// table, a base-profile shard for truncated ranges, and the tail-edge /
// indirect-call aggregations.
type csWorker struct {
	bin     *machine.Prog
	u       *unwinder
	pending pendingTable
	trunc   map[rangeKey]uint64 // truncated-range occurrences, expanded at drain
	base    *profdata.Profile
	tails   map[edgeKey]tailObs // nil when tail-call inference is off
	icalls  map[uint64]map[string]uint64
	busyNS  int64
}

// newCSWorker builds one streaming worker's private state.
func newCSWorker(bin *machine.Prog, opts CSSPGOOptions) *csWorker {
	w := &csWorker{
		bin:    bin,
		u:      newUnwinder(bin, nil),
		trunc:  map[rangeKey]uint64{},
		base:   profdata.New(profdata.ProbeBased, true),
		icalls: map[uint64]map[string]uint64{},
	}
	w.u.AssumeAligned = opts.AssumeAligned
	if opts.TailCallInference {
		w.tails = map[edgeKey]tailObs{}
	}
	return w
}

// CSSPGOStream is the streaming CSSPGO generator. It implements
// sim.SampleSink, so it can be attached directly to a running machine via
// Machine.SetSampleSink; Finish closes the pipeline and produces the
// profile. GenerateCSSPGO wraps it for materialized sample slices.
type CSSPGOStream struct {
	dispatcher
	bin     *machine.Prog
	opts    CSSPGOOptions
	workers []*csWorker
	usp     *obs.Span
}

// NewCSSPGOStream starts the worker pool. The caller must call Finish
// exactly once after the last chunk.
func NewCSSPGOStream(bin *machine.Prog, opts CSSPGOOptions) *CSSPGOStream {
	nw := resolveWorkers(opts.Workers)
	s := &CSSPGOStream{bin: bin, opts: opts, workers: make([]*csWorker, nw)}
	for i := range s.workers {
		s.workers[i] = newCSWorker(bin, opts)
	}
	s.usp = opts.Trace.Span("sampling.unwind", obs.A("workers", nw))
	s.start(nw, func(i int) {
		w := s.workers[i]
		wsp := s.usp.WorkerSpan("sampling.unwind_shard", i)
		t0 := time.Now()
		s.receive(w.consume)
		w.busyNS = time.Since(t0).Nanoseconds()
		wsp.End()
	})
	return s
}

func (w *csWorker) consume(sh share) {
	ch := sh.c.ch
	for _, g := range sh.groups {
		smp := &ch.Samples[g.first]
		n := uint64(g.n)
		from := w.u.decode(smp.LBR)
		w.scanLBR(ch.Index, int(g.first), smp.LBR, from, n)
		// Intra-function branches dominate hot LBRs: consecutive ranges with
		// unchanged callers and the same leaf resolve to the same pending
		// context, so the hash + table probe can be skipped for them.
		last := int32(-1)
		var lastLeaf *machine.Func
		for _, cr := range w.u.unwind(smp, from, int(g.n)) {
			if !cr.SameCallers {
				last = -1
			}
			rk := rangeKey{cr.Lo, cr.Hi}
			if cr.Truncated {
				// The outer context is unknown; the counts go to the base
				// shard at drain and must not mint a false shallow context.
				w.trunc[rk] += n
				continue
			}
			if last < 0 || cr.Fn != lastLeaf {
				// cr.Callers lives in the unwinder's arena; the table copies
				// it once per distinct context.
				last, lastLeaf = w.pending.index(cr.Callers, cr.Fn), cr.Fn
			}
			pc := w.pending.ctxs[last]
			pc.lookups += int(g.n)
			pc.count(rk, n)
		}
	}
}

// attributeRange credits occ executions of the instruction range rk to every
// probe anchored in it, in the profile pick selects per probe record.
// AddBody/AddCall accumulate, so weight × occurrences yields the same sums
// as one add per observed range.
func attributeRange(bin *machine.Prog, rk rangeKey, occ uint64, pick func(*machine.ProbeRec) *profdata.FunctionProfile) {
	ix := bin.Index()
	for i := int(rk.lo); i < int(rk.hi); i++ {
		in := &bin.Instrs[i]
		for _, pi := range ix.ProbeIndicesAt(in.Addr) {
			rec := &bin.Probes[pi]
			wt := probeWeight(rec.Factor)
			if wt == 0 {
				continue
			}
			fp := pick(rec)
			loc := profdata.LocKey{ID: rec.ID}
			switch rec.Kind {
			case ir.ProbeBlock:
				fp.AddBody(loc, wt*occ)
			case ir.ProbeCall:
				if in.Kind == machine.KCall || in.Kind == machine.KTailCall {
					fp.AddCall(loc, bin.Funcs[in.CalleeID].Name, wt*occ)
				}
			}
		}
	}
}

// countICallTarget records n observations of one LBR call branch out of an
// indirect-call site (site address -> callee name -> count).
func countICallTarget(ix *machine.Index, icalls map[uint64]map[string]uint64, br *sim.BranchRec, n uint64) {
	callee := ix.FuncAt(br.To)
	if callee == nil {
		return
	}
	m := icalls[br.From]
	if m == nil {
		m = map[string]uint64{}
		icalls[br.From] = m
	}
	m[callee.Name] += n
}

// mergeICallTargets folds per-worker target maps into a freshly-allocated
// result. Inner maps are always copied, never adopted by reference: an
// adopted map would alias worker-private state, so a caller reusing or
// pooling worker results after the merge would silently corrupt the merged
// histogram.
func mergeICallTargets(parts []map[uint64]map[string]uint64) map[uint64]map[string]uint64 {
	size := 0
	if len(parts) > 0 {
		size = len(parts[0])
	}
	out := make(map[uint64]map[string]uint64, size)
	for _, part := range parts {
		for site, targets := range part {
			m := out[site]
			if m == nil {
				m = make(map[string]uint64, len(targets))
				out[site] = m
			}
			for callee, n := range targets {
				m[callee] += n
			}
		}
	}
	return out
}

// scanLBR collects tail-call edges (with their global stream position) and
// indirect-call targets from the LBR of n identical samples, the first of
// them at (chunkIdx, sampIdx); from is the unwinder's decode of lbr.
func (w *csWorker) scanLBR(chunkIdx, sampIdx int, lbr []sim.BranchRec, from []int32, n uint64) {
	for bi, ii := range from {
		if ii < 0 {
			continue
		}
		br := &lbr[bi]
		switch w.bin.Instrs[ii].Kind {
		case machine.KTailCall:
			if w.tails == nil {
				continue
			}
			caller := w.u.ix.FuncAt(br.From)
			callee := w.u.ix.FuncAt(br.To)
			if caller == nil || callee == nil {
				continue
			}
			k := edgeKey{caller.Name, callee.Name}
			pos := streamPos{chunkIdx, sampIdx, bi}
			if cur, ok := w.tails[k]; !ok || pos.before(cur.pos) {
				w.tails[k] = tailObs{site: br.From, pos: pos}
			}
		case machine.KICall:
			countICallTarget(w.u.ix, w.icalls, br, n)
		}
	}
}

// Finish drains the pipeline, merges per-worker state, resolves every
// distinct context once against the complete tail-call graph, and returns
// the profile.
func (s *CSSPGOStream) Finish() (*profdata.Profile, UnwindStats) {
	s.wait()
	s.usp.End()
	for _, w := range s.workers {
		s.opts.Metrics.Histogram(obs.MShardWorkerBusyNS).Observe(w.busyNS)
	}

	// Tail-call graph: global first observation per edge.
	var tails *tailCallGraph
	if s.opts.TailCallInference {
		tsp := s.opts.Trace.Span("sampling.tailcall_graph")
		t0 := time.Now()
		first := map[edgeKey]tailObs{}
		for _, w := range s.workers {
			for k, o := range w.tails {
				if cur, ok := first[k]; !ok || o.pos.before(cur.pos) {
					first[k] = o
				}
			}
		}
		tails = &tailCallGraph{edges: map[string]map[string]*tailEdge{}}
		for k, o := range first {
			m := tails.edges[k.from]
			if m == nil {
				m = map[string]*tailEdge{}
				tails.edges[k.from] = m
			}
			m[k.to] = &tailEdge{From: k.from, To: k.to, SiteAddr: o.site}
		}
		s.opts.Metrics.Counter(obs.MShardTailGraphBuildNS).Add(time.Since(t0).Nanoseconds())
		tsp.End()
	}

	// Merge worker shards: base profiles, stats, pending tables, icalls.
	msp := s.opts.Trace.Span("sampling.merge_shards")
	bases := make([]*profdata.Profile, len(s.workers))
	icallParts := make([]map[uint64]map[string]uint64, len(s.workers))
	var st UnwindStats
	for i, w := range s.workers {
		// Truncated ranges have no known outer context: their counts go to
		// the worker's base-profile shard.
		inBase := func(rec *machine.ProbeRec) *profdata.FunctionProfile {
			return w.base.FuncProfile(rec.Func)
		}
		for rk, occ := range w.trunc {
			attributeRange(s.bin, rk, occ, inBase)
		}
		bases[i] = w.base
		icallParts[i] = w.icalls
		st.Add(w.u.Stats)
	}
	p := profdata.MergeShards(bases)
	if p == nil {
		p = profdata.New(profdata.ProbeBased, true)
	}
	pending := &s.workers[0].pending
	for _, w := range s.workers[1:] {
		pending.merge(&w.pending)
	}
	icalls := mergeICallTargets(icallParts)
	msp.End()

	// Resolve each distinct context once and attribute its deferred counts.
	rsp := s.opts.Trace.Span("sampling.resolve_contexts", obs.A("contexts", len(pending.ctxs)))
	ru := newUnwinder(s.bin, tails)
	ru.AssumeAligned = s.opts.AssumeAligned
	// callerCtx is rebuilt for every pending context and ctxBuf for every
	// probe of every range; ContextProfile copies the context it has to
	// keep.
	var callerCtx, ctxBuf profdata.Context
	inContext := func(rec *machine.ProbeRec) *profdata.FunctionProfile {
		ctxBuf = contextForProbe(ctxBuf, callerCtx, rec, s.opts.MaxContextDepth)
		return p.ContextProfile(ctxBuf)
	}
	for _, pc := range pending.ctxs {
		before := ru.Stats
		callerCtx = ru.contextOf(callerCtx, pc.callers, pc.leaf.Name)
		// Inference-stat deltas are defined per lookup; contextOf above
		// charged them once, add the rest.
		if n := pc.lookups - 1; n > 0 {
			dm := ru.Stats.MissingFrameEvents - before.MissingFrameEvents
			de := ru.Stats.EventsRecovered - before.EventsRecovered
			df := ru.Stats.FramesRecovered - before.FramesRecovered
			ru.Stats.MissingFrameEvents += n * dm
			ru.Stats.EventsRecovered += n * de
			ru.Stats.FramesRecovered += n * df
		}
		for _, rc := range pc.few[:pc.nFew] {
			attributeRange(s.bin, rc.rangeKey, rc.occ, inContext)
		}
		for rk, occ := range pc.more {
			attributeRange(s.bin, rk, occ, inContext)
		}
	}
	st.Add(ru.Stats)
	rsp.End()

	isp := s.opts.Trace.Span("sampling.icall_targets")
	attributeICallTargets(s.bin, icalls, func(rec *machine.ProbeRec) *profdata.FunctionProfile {
		return p.FuncProfile(rec.Func)
	})
	isp.End()
	fsp := s.opts.Trace.Span("sampling.finalize")
	finalizeProbeProfile(s.bin, p)
	fsp.End()

	if s.opts.Metrics != nil {
		s.opts.Metrics.Counter(obs.MStreamChunks).Add(int64(s.chunks))
		s.opts.Metrics.Counter(obs.MStreamContexts).Add(int64(len(pending.ctxs)))
		s.opts.Metrics.Counter(obs.MStreamDistinctSamples).Add(int64(s.distinct))
	}
	st.Publish(s.opts.Metrics)
	publishProfileShape(s.opts.Metrics, p, s.samples)
	return p, st
}

// ------------------------------------------------------------- flat

// flatWorker is one streaming worker's state for the flat generators: a
// dense address counter and the indirect-call histogram.
type flatWorker struct {
	bin    *machine.Prog
	ix     *machine.Index // bin's lookup tables, fetched once
	ac     *AddrCounter
	icalls map[uint64]map[string]uint64
}

func newFlatWorker(bin *machine.Prog) *flatWorker {
	return &flatWorker{
		bin:    bin,
		ix:     bin.Index(),
		ac:     newAddrCounter(bin),
		icalls: map[uint64]map[string]uint64{},
	}
}

// FlatStream is the front half of the flat (context-insensitive)
// generators. It implements sim.SampleSink; FinishAutoFDO or FinishProbe
// closes the pipeline and runs the corresponding attribution.
type FlatStream struct {
	dispatcher
	bin     *machine.Prog
	opts    FlatOptions
	workers []*flatWorker
	csp     *obs.Span
}

// NewFlatStream starts the worker pool. The caller must call exactly one
// Finish* method after the last chunk.
func NewFlatStream(bin *machine.Prog, opts FlatOptions) *FlatStream {
	nw := resolveWorkers(opts.Workers)
	s := &FlatStream{bin: bin, opts: opts, workers: make([]*flatWorker, nw)}
	for i := range s.workers {
		s.workers[i] = newFlatWorker(bin)
	}
	s.csp = opts.Trace.Span("sampling.addr_counts", obs.A("workers", nw))
	s.start(nw, func(i int) { s.receive(s.workers[i].consume) })
	return s
}

func (w *flatWorker) consume(sh share) {
	for _, g := range sh.groups {
		lbr := sh.c.ch.Samples[g.first].LBR
		n := uint64(g.n)
		for i := range lbr {
			br := &lbr[i]
			ii := w.ix.InstrIndexAt(br.From)
			if ii < 0 {
				continue
			}
			if w.bin.Instrs[ii].Kind == machine.KICall {
				countICallTarget(w.ix, w.icalls, br, n)
			}
			// Execution ran linearly from the next-older record's target to
			// this record's source.
			if i+1 < len(lbr) {
				if lo, hi, fn := resolveRange(w.ix, lbr[i+1].To, br.From, ii); fn != nil {
					w.ac.addInstrs(lo, hi, n)
				}
			}
		}
	}
}

// drain closes the pipeline and merges per-worker state.
func (s *FlatStream) drain() (*AddrCounter, map[uint64]map[string]uint64, int) {
	s.wait()
	ac := s.workers[0].ac
	icallParts := make([]map[uint64]map[string]uint64, len(s.workers))
	for i, w := range s.workers {
		if i > 0 {
			ac.Merge(w.ac)
		}
		icallParts[i] = w.icalls
	}
	s.csp.End()
	if s.opts.Metrics != nil {
		s.opts.Metrics.Counter(obs.MStreamDistinctSamples).Add(int64(s.distinct))
	}
	return ac, mergeICallTargets(icallParts), s.samples
}

// FinishAutoFDO produces the AutoFDO (line-keyed) profile.
func (s *FlatStream) FinishAutoFDO() *profdata.Profile {
	ac, icalls, total := s.drain()
	return generateAutoFDOFrom(s.bin, ac, icalls, s.opts, total)
}

// FinishProbe produces the flat probe-keyed profile.
func (s *FlatStream) FinishProbe() *profdata.Profile {
	ac, icalls, total := s.drain()
	return generateProbeProfileFrom(s.bin, ac, icalls, s.opts, total)
}
