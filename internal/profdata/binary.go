package profdata

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// The compact binary profile format ("extbinary" analogue): a magic header,
// an interned string table built on the fly, and varint-packed sections.
// Field-for-field equivalent to the text format; Decode auto-detects which
// of the two it is reading.

// binMagic starts every binary profile.
var binMagic = [4]byte{'C', 'S', 'P', 'F'}

const binVersion = 1

type binWriter struct {
	buf     bytes.Buffer
	strings map[string]uint64
	// Reused sort scratch, so encoding a large profile does not allocate a
	// fresh slice per function record.
	locs  []LocKey
	names []string
}

// binWriterPool recycles encoders (buffer, string table and sort scratch)
// across EncodeBinary calls; the encoder is the hot serialization path for
// shard merging and benchmark pins.
var binWriterPool = sync.Pool{
	New: func() any { return &binWriter{strings: map[string]uint64{}} },
}

func (w *binWriter) reset() {
	w.buf.Reset()
	for k := range w.strings {
		delete(w.strings, k)
	}
}

func (w *binWriter) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	w.buf.Write(tmp[:n])
}

func (w *binWriter) str(s string) {
	if idx, ok := w.strings[s]; ok {
		w.uvarint(idx + 1)
		return
	}
	w.strings[s] = uint64(len(w.strings))
	w.uvarint(0) // new-string marker
	w.uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

func (w *binWriter) loc(l LocKey) {
	w.uvarint(uint64(uint32(l.ID)))
	w.uvarint(uint64(uint32(l.Disc)))
}

func (w *binWriter) funcProfile(fp *FunctionProfile) {
	flags := uint64(0)
	if fp.ShouldInline {
		flags |= 1
	}
	if fp.Approx {
		flags |= 2
	}
	w.uvarint(flags)
	w.uvarint(fp.HeadSamples)
	w.uvarint(fp.Checksum)
	w.locs = appendSortedLocs(w.locs[:0], fp.Blocks)
	w.uvarint(uint64(len(w.locs)))
	for _, loc := range w.locs {
		w.loc(loc)
		w.uvarint(fp.Blocks[loc])
	}
	w.locs = appendSortedLocs(w.locs[:0], fp.Calls)
	w.uvarint(uint64(len(w.locs)))
	for _, loc := range w.locs {
		w.loc(loc)
		m := fp.Calls[loc]
		w.names = appendSortedKeys(w.names[:0], m)
		w.uvarint(uint64(len(w.names)))
		for _, c := range w.names {
			w.str(c)
			w.uvarint(m[c])
		}
	}
}

// EncodeBinary renders the profile in the compact binary format. The
// encoder state (buffer, string table, sort scratch) is pooled; the
// returned slice is an exact-size copy the caller owns.
func EncodeBinary(p *Profile) []byte {
	w := binWriterPool.Get().(*binWriter)
	w.reset()
	w.buf.Write(binMagic[:])
	w.buf.WriteByte(binVersion)
	flags := byte(0)
	if p.Kind == ProbeBased {
		flags |= 1
	}
	if p.CS {
		flags |= 2
	}
	w.buf.WriteByte(flags)

	names := p.SortedFuncNames()
	w.uvarint(uint64(len(names)))
	for _, name := range names {
		w.str(name)
		w.funcProfile(p.Funcs[name])
	}
	keys := p.SortedContextKeys()
	w.uvarint(uint64(len(keys)))
	for _, key := range keys {
		fp := p.Contexts[key]
		w.uvarint(uint64(len(fp.Context)))
		for i, fr := range fp.Context {
			w.str(fr.Func)
			if i != len(fp.Context)-1 {
				w.loc(fr.Site)
			}
		}
		w.funcProfile(fp)
	}
	out := make([]byte, w.buf.Len())
	copy(out, w.buf.Bytes())
	binWriterPool.Put(w)
	return out
}

type binReader struct {
	r       *bytes.Reader
	strings []string
}

func (r *binReader) uvarint() (uint64, error) { return binary.ReadUvarint(r.r) }

func (r *binReader) str() (string, error) {
	tag, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if tag == 0 {
		n, err := r.uvarint()
		if err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("profdata: string length %d implausible", n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r.r, b); err != nil {
			return "", err
		}
		s := string(b)
		r.strings = append(r.strings, s)
		return s, nil
	}
	idx := tag - 1
	if idx >= uint64(len(r.strings)) {
		return "", fmt.Errorf("profdata: string index %d out of range", idx)
	}
	return r.strings[idx], nil
}

func (r *binReader) loc() (LocKey, error) {
	id, err := r.uvarint()
	if err != nil {
		return LocKey{}, err
	}
	disc, err := r.uvarint()
	if err != nil {
		return LocKey{}, err
	}
	return LocKey{ID: int32(uint32(id)), Disc: int32(uint32(disc))}, nil
}

func (r *binReader) funcProfile(fp *FunctionProfile) error {
	flags, err := r.uvarint()
	if err != nil {
		return err
	}
	fp.ShouldInline = flags&1 != 0
	fp.Approx = flags&2 != 0
	if fp.HeadSamples, err = r.uvarint(); err != nil {
		return err
	}
	if fp.Checksum, err = r.uvarint(); err != nil {
		return err
	}
	nb, err := r.uvarint()
	if err != nil {
		return err
	}
	for i := uint64(0); i < nb; i++ {
		loc, err := r.loc()
		if err != nil {
			return err
		}
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		fp.AddBody(loc, n)
	}
	nc, err := r.uvarint()
	if err != nil {
		return err
	}
	for i := uint64(0); i < nc; i++ {
		loc, err := r.loc()
		if err != nil {
			return err
		}
		nt, err := r.uvarint()
		if err != nil {
			return err
		}
		for j := uint64(0); j < nt; j++ {
			callee, err := r.str()
			if err != nil {
				return err
			}
			n, err := r.uvarint()
			if err != nil {
				return err
			}
			fp.AddCall(loc, callee, n)
		}
	}
	return nil
}

// clampRecords bounds a remaining-record count derived from an untrusted
// header field so a corrupt count cannot overflow the stats.
func clampRecords(n uint64) int {
	const max = 1 << 20
	if n > max {
		return max
	}
	return int(n)
}

// install merges one decoded record into the profile's entry, preserving
// flag semantics for (corrupt) inputs that repeat a record.
func install(dst, src *FunctionProfile) {
	dst.Merge(src)
	dst.ShouldInline = dst.ShouldInline || src.ShouldInline
}

func decodeBinary(data []byte, lenient bool) (*Profile, ReadStats, error) {
	var stats ReadStats
	if !isBinaryProfile(data) {
		return nil, stats, fmt.Errorf("profdata: not a binary profile")
	}
	if data[4] != binVersion {
		return nil, stats, fmt.Errorf("profdata: unsupported binary profile version %d", data[4])
	}
	flags := data[5]
	kind := LineBased
	if flags&1 != 0 {
		kind = ProbeBased
	}
	p := New(kind, flags&2 != 0)
	r := &binReader{r: bytes.NewReader(data[6:])}
	// bail either aborts (strict) or writes off the declared-but-unreadable
	// remainder of the stream and keeps the parsed prefix (lenient).
	bail := func(remaining uint64, err error) (*Profile, ReadStats, error) {
		if !lenient {
			return nil, stats, err
		}
		stats.SkippedRecords += clampRecords(remaining)
		return p, stats, nil
	}

	nf, err := r.uvarint()
	if err != nil {
		return bail(1, err)
	}
	for i := uint64(0); i < nf; i++ {
		name, err := r.str()
		if err != nil {
			return bail(nf-i, err)
		}
		tmp := NewFunctionProfile(name)
		if err := r.funcProfile(tmp); err != nil {
			return bail(nf-i, err)
		}
		install(p.FuncProfile(name), tmp)
	}
	nctx, err := r.uvarint()
	if err != nil {
		return bail(1, err)
	}
	for i := uint64(0); i < nctx; i++ {
		depth, err := r.uvarint()
		if err != nil {
			return bail(nctx-i, err)
		}
		if depth == 0 || depth > 1024 {
			return bail(nctx-i, fmt.Errorf("profdata: context depth %d implausible", depth))
		}
		ctx := make(Context, depth)
		bad := false
		for j := uint64(0); j < depth; j++ {
			fn, err := r.str()
			if err != nil {
				return bail(nctx-i, err)
			}
			ctx[j].Func = fn
			if fn == "" {
				bad = true
			}
			if j != depth-1 {
				if ctx[j].Site, err = r.loc(); err != nil {
					return bail(nctx-i, err)
				}
			}
		}
		if bad {
			// An empty frame name cannot round-trip through the canonical
			// context key; reject the record rather than corrupt the table.
			return bail(nctx-i, fmt.Errorf("profdata: empty context frame name"))
		}
		tmp := NewFunctionProfile(ctx.Leaf())
		if err := r.funcProfile(tmp); err != nil {
			return bail(nctx-i, err)
		}
		install(p.ContextProfile(ctx), tmp)
	}
	return p, stats, nil
}

// isBinaryProfile reports whether data starts with the binary magic.
func isBinaryProfile(data []byte) bool {
	return len(data) >= 6 && bytes.Equal(data[:4], binMagic[:])
}

// BinarySizeBytes is the size of the compact encoding.
func (p *Profile) BinarySizeBytes() int { return len(EncodeBinary(p)) }
