package sim

import (
	"slices"
	"sync"
)

// This file is the streaming half of the PMU: instead of materializing the
// whole sample stream in memory (Samples()), the machine can hand off
// fixed-size chunks to a SampleSink as the simulation runs, the way a perf
// ring buffer drains to a consumer. Chunks are pooled; the sink owns a
// chunk from ConsumeChunk until it returns it via RecycleChunk, after which
// every Sample slot (including the LBR/Stack backing arrays) may be reused
// for a later chunk. Consumers must not retain references past recycling.

// DefaultChunkSize is the number of samples per streamed chunk when the
// caller does not choose one.
const DefaultChunkSize = 4096

// SampleChunk is one fixed-size batch of PMU samples. Index is the chunk's
// 0-based position in the sample stream: together with a sample's position
// inside the chunk it totally orders the stream, so consumers can merge
// concurrently-processed chunks deterministically.
type SampleChunk struct {
	Index   int
	Samples []Sample
	// Borrowed marks a chunk whose Samples alias caller-owned memory (e.g.
	// a materialized sample slice fed through the streaming pipeline).
	// RecycleChunk drops borrowed chunks instead of pooling them, so the
	// pool never hands out a chunk that would overwrite foreign samples.
	Borrowed bool

	// The unused rest of the slabs that slots' LBR and stack arrays are
	// carved from (see carve).
	lbrSlab   []BranchRec
	stackSlab []uint64
}

// SampleSink consumes streamed sample chunks. ConsumeChunk transfers
// ownership of the chunk to the sink; the sink must eventually pass it to
// RecycleChunk (directly or after processing on another goroutine).
// ConsumeChunk is called from the simulation goroutine, in stream order.
type SampleSink interface {
	ConsumeChunk(ch *SampleChunk)
}

var chunkPool = sync.Pool{New: func() any { return new(SampleChunk) }}

// getChunk returns a pooled chunk with zero samples. A fresh chunk has no
// slots yet: appendSlot grows them with the stream, so a collection of a
// hundred samples does not pay for a chunk size of them, and a chunk
// recycled from an earlier stream keeps the slots it grew.
func getChunk() *SampleChunk {
	ch := chunkPool.Get().(*SampleChunk)
	ch.Index = 0
	ch.Borrowed = false
	ch.Samples = ch.Samples[:0]
	return ch
}

// RecycleChunk returns a chunk to the pool. The chunk and every Sample it
// handed out become invalid for the caller.
func RecycleChunk(ch *SampleChunk) {
	if ch == nil || ch.Borrowed {
		return
	}
	ch.Samples = ch.Samples[:0]
	chunkPool.Put(ch)
}

// firstChunkSlots is how many slots a fresh chunk grows to first.
const firstChunkSlots = 64

// appendSlot extends the chunk by one sample and returns the slot. Slots
// recovered from the pool keep their LBR/Stack backing arrays so the hot
// path appends into already-sized memory. A full chunk doubles its slots,
// up to limit (the chunk size, at which the chunk is handed off).
func (c *SampleChunk) appendSlot(limit int) *Sample {
	if n := len(c.Samples); n == cap(c.Samples) {
		more := min(max(n, firstChunkSlots), limit-n)
		c.Samples = slices.Grow(c.Samples, max(more, 1))
	}
	c.Samples = c.Samples[:len(c.Samples)+1]
	return &c.Samples[len(c.Samples)-1]
}

// carve returns an empty slice of capacity n cut from the front of *slab,
// first replacing the slab with one of firstChunkSlots × n elements when
// fewer than n are left. A slot whose LBR or stack array is too small takes
// one from its chunk's slabs this way, so filling a fresh chunk allocates
// once per 64 slots instead of growing every slot's arrays by append. The
// capacity is capped, so an append to one slot never writes into the next.
func carve[T any](slab *[]T, n int) []T {
	if len(*slab) < n {
		*slab = make([]T, firstChunkSlots*n)
	}
	s := (*slab)[:0:n]
	*slab = (*slab)[n:]
	return s
}

// SetSampleSink switches the machine's PMU into streaming mode: samples are
// written into pooled chunks of chunkSize (DefaultChunkSize when <= 0) and
// handed to sink as each fills. While a sink is installed, Samples()
// accumulates nothing. Call FlushSamples after the last Run to deliver the
// final partial chunk.
func (m *Machine) SetSampleSink(sink SampleSink, chunkSize int) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	m.pmu.sink = sink
	m.pmu.chunkSize = chunkSize
}

// FlushSamples delivers any buffered partial chunk to the installed sink.
// It is a no-op in batch mode or when no samples are pending.
func (m *Machine) FlushSamples() { m.pmu.flushChunk() }
