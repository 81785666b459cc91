package machine

import (
	"encoding/binary"
	"math"
	"math/bits"

	"csspgo/internal/ir"
)

// This file serializes the two self-describing metadata sections whose
// sizes the paper's Fig. 9 compares: the DWARF-like debug line/inline
// section (emitted under -g2) and the pseudo-probe metadata section. The
// encodings are honest byte-level encodings (delta + varint compressed,
// with a shared string table) so section-size comparisons are meaningful.

// sectionEncoder writes a section's bytes into buf, or, when sizeOnly is
// set, only counts them into size: ComputeSizes measures a section with the
// very calls that encode it.
type sectionEncoder struct {
	buf      []byte
	size     uint64
	sizeOnly bool
	strings  map[string]int
}

func (e *sectionEncoder) uvarint(v uint64) {
	if e.sizeOnly {
		e.size += uint64(bits.Len64(v|1)+6) / 7
		return
	}
	e.buf = binary.AppendUvarint(e.buf, v)
}

// varint zig-zags v into a uvarint, as binary.PutVarint does.
func (e *sectionEncoder) varint(v int64) {
	ux := uint64(v) << 1
	if v < 0 {
		ux = ^ux
	}
	e.uvarint(ux)
}

func (e *sectionEncoder) u64(v uint64) {
	if e.sizeOnly {
		e.size += 8
		return
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// str interns a string: first use costs len+1 bytes plus the index varint;
// later uses cost only the index varint.
func (e *sectionEncoder) str(s string) {
	if idx, ok := e.strings[s]; ok {
		e.uvarint(uint64(idx))
		return
	}
	if e.strings == nil {
		e.strings = map[string]int{}
	}
	e.strings[s] = len(e.strings)
	e.uvarint(uint64(len(s)))
	if e.sizeOnly {
		e.size += uint64(len(s))
		return
	}
	e.buf = append(e.buf, s...)
}

// debugSection writes (or counts) the line+inline table for all
// instructions that carry debug locations, mimicking DWARF
// .debug_line/.debug_info under -g2. Only its size is recorded; the tests
// encode it.
func (p *Prog) debugSection(e *sectionEncoder) {
	var prevAddr uint64
	var prevLine int64
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Loc == nil {
			continue
		}
		e.uvarint(in.Addr - prevAddr)
		prevAddr = in.Addr
		depth := 0
		for l := in.Loc; l != nil; l = l.Parent {
			depth++
		}
		e.uvarint(uint64(depth))
		for l := in.Loc; l != nil; l = l.Parent {
			e.str(l.Func)
			e.varint(int64(l.Line) - prevLine)
			prevLine = int64(l.Line)
			if l.Disc != 0 {
				e.uvarint(1)
				e.uvarint(uint64(l.Disc))
			} else {
				e.uvarint(0)
			}
		}
	}
}

// EncodeProbeSection serializes the pseudo-probe metadata section: per
// function a GUID + CFG checksum header followed by probe records (id,
// kind, optional factor, anchor address delta, inline chain). The section
// is self-contained — it references nothing else in the binary and nothing
// references it, so it could be split out of the object file, as the paper
// notes.
func (p *Prog) EncodeProbeSection() []byte {
	var e sectionEncoder
	p.probeSection(&e)
	return e.buf
}

// probeSection writes (or counts) the probe section EncodeProbeSection
// returns.
func (p *Prog) probeSection(e *sectionEncoder) {
	if len(p.Probes) == 0 {
		return
	}
	// Group probes by defining function, functions in order of first
	// appearance and probes in index order within one: a counting sort of
	// the probe indices by the function's rank.
	rank := map[string]int32{}
	var order []string
	for i := range p.Probes {
		if _, ok := rank[p.Probes[i].Func]; !ok {
			rank[p.Probes[i].Func] = int32(len(order))
			order = append(order, p.Probes[i].Func)
		}
	}
	start := make([]int32, len(order)+1)
	for i := range p.Probes {
		start[rank[p.Probes[i].Func]+1]++
	}
	for r := range order {
		start[r+1] += start[r]
	}
	// Placing a probe advances its function's start, which leaves start[r]
	// at function r's end; shifting by one restores the starts.
	byFunc := make([]int32, len(p.Probes))
	for i := range p.Probes {
		r := rank[p.Probes[i].Func]
		byFunc[start[r]] = int32(i)
		start[r]++
	}
	copy(start[1:], start[:len(order)])
	start[0] = 0
	for r, fn := range order {
		e.str(fn)
		var guid uint64
		if f, ok := p.FuncByName[fn]; ok {
			guid = f.GUID
		}
		e.u64(guid)
		e.u64(p.Checksums[fn])
		idxs := byFunc[start[r]:start[r+1]]
		e.uvarint(uint64(len(idxs)))
		var prevAddr uint64
		for _, i := range idxs {
			pr := &p.Probes[i]
			e.uvarint(uint64(pr.ID))
			flags := uint64(pr.Kind)
			if pr.Factor != 1.0 {
				flags |= 4
			}
			e.uvarint(flags)
			if pr.Factor != 1.0 {
				e.u64(math.Float64bits(pr.Factor))
			}
			e.varint(int64(pr.Addr) - int64(prevAddr))
			prevAddr = pr.Addr
			depth := 0
			for s := pr.InlinedAt; s != nil; s = s.Parent {
				depth++
			}
			e.uvarint(uint64(depth))
			for s := pr.InlinedAt; s != nil; s = s.Parent {
				// Real pseudo-probe descriptors reference inline frames by
				// 8-byte GUID rather than interned strings.
				e.u64(ir.GUIDFor(s.Func))
				e.uvarint(uint64(s.CallID))
			}
		}
	}
}

// ComputeSizes fills TextSize, DebugSize and ProbeMetaSize. The two
// metadata sections are counted, not encoded.
func (p *Prog) ComputeSizes() {
	var text uint64
	for i := range p.Instrs {
		text += uint64(SizeOf(p.Instrs[i].Kind))
	}
	p.TextSize = text
	debug := sectionEncoder{sizeOnly: true}
	p.debugSection(&debug)
	p.DebugSize = debug.size
	probes := sectionEncoder{sizeOnly: true}
	p.probeSection(&probes)
	p.ProbeMetaSize = probes.size
}
