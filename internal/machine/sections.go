package machine

import (
	"encoding/binary"
	"math"

	"csspgo/internal/ir"
)

// This file serializes the two self-describing metadata sections whose
// sizes the paper's Fig. 9 compares: the DWARF-like debug line/inline
// section (emitted under -g2) and the pseudo-probe metadata section. The
// encodings are honest byte-level encodings (delta + varint compressed,
// with a shared string table) so section-size comparisons are meaningful.

type sectionEncoder struct {
	buf     []byte
	strings map[string]int
	nstr    int
}

func newSectionEncoder() *sectionEncoder {
	return &sectionEncoder{strings: map[string]int{}}
}

func (e *sectionEncoder) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	e.buf = append(e.buf, tmp[:n]...)
}

func (e *sectionEncoder) varint(v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	e.buf = append(e.buf, tmp[:n]...)
}

func (e *sectionEncoder) u64(v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	e.buf = append(e.buf, tmp[:]...)
}

// str interns a string: first use costs len+1 bytes plus the index varint;
// later uses cost only the index varint.
func (e *sectionEncoder) str(s string) {
	if idx, ok := e.strings[s]; ok {
		e.uvarint(uint64(idx))
		return
	}
	e.strings[s] = e.nstr
	e.nstr++
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// encodeDebugSection serializes the line+inline table for all instructions
// that carry debug locations, mimicking DWARF .debug_line/.debug_info under
// -g2. Returns the encoded bytes.
func (p *Prog) encodeDebugSection() []byte {
	e := newSectionEncoder()
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
	return e.buf
}

// EncodeProbeSection serializes the pseudo-probe metadata section: per
// function a GUID + CFG checksum header followed by probe records (id,
// kind, optional factor, anchor address delta, inline chain). The section
// is self-contained — it references nothing else in the binary and nothing
// references it, so it could be split out of the object file, as the paper
// notes.
func (p *Prog) EncodeProbeSection() []byte {
	if len(p.Probes) == 0 {
		return nil
	}
	e := newSectionEncoder()
	// Group probes by defining function, preserving order.
	byFunc := map[string][]int{}
	var order []string
	for i := range p.Probes {
		fn := p.Probes[i].Func
		if _, ok := byFunc[fn]; !ok {
			order = append(order, fn)
		}
		byFunc[fn] = append(byFunc[fn], i)
	}
	for _, fn := range order {
		e.str(fn)
		var guid, sum uint64
		if f, ok := p.FuncByName[fn]; ok {
			guid = f.GUID
		}
		sum = p.Checksums[fn]
		e.u64(guid)
		e.u64(sum)
		idxs := byFunc[fn]
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
	return e.buf
}

// ComputeSizes fills TextSize, DebugSize and ProbeMetaSize.
func (p *Prog) ComputeSizes() {
	var text uint64
	for i := range p.Instrs {
		text += uint64(p.Instrs[i].Size)
	}
	p.TextSize = text
	p.DebugSize = uint64(len(p.encodeDebugSection()))
	p.ProbeMetaSize = uint64(len(p.EncodeProbeSection()))
}
