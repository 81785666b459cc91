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
}

// binWriterPool recycles encoders (buffer and string table) across
// EncodeBinary calls; the encoder is the hot serialization path for shard
// merging and benchmark pins.
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
	w.uvarint(uint64(len(fp.Blocks)))
	for _, b := range fp.Blocks {
		w.loc(b.Loc)
		w.uvarint(b.N)
	}
	sites := 0
	for rest := fp.Calls; len(rest) > 0; rest = rest[siteLen(rest):] {
		sites++
	}
	w.uvarint(uint64(sites))
	for rest := fp.Calls; len(rest) > 0; {
		n := siteLen(rest)
		w.loc(rest[0].Loc)
		w.uvarint(uint64(n))
		for _, c := range rest[:n] {
			w.str(c.Callee)
			w.uvarint(c.N)
		}
		rest = rest[n:]
	}
}

// siteLen returns how many of the leading call records share the first
// one's location: the callees of one call site.
func siteLen(calls []CallCount) int {
	n := 1
	for n < len(calls) && calls[n].Loc == calls[0].Loc {
		n++
	}
	return n
}

// EncodeBinary renders the profile in the compact binary format. The
// encoder state (buffer, string table) is pooled; the
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
	// bad is the first reason the record being read cannot be kept. The
	// record is still read to its end, so the stream stays in step.
	bad error
	// rec is the record being read. Its lists are reused from record to
	// record; install copies them into the profile at their length.
	rec FunctionProfile
}

// reject records why the current record cannot be kept (nil: no reason).
func (r *binReader) reject(err error) {
	if r.bad == nil {
		r.bad = err
	}
}

// name reads a function name and holds it to the text reader's rules.
func (r *binReader) name() (string, error) {
	s, err := r.str()
	if err == nil {
		r.reject(checkName(s))
	}
	return s, err
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

// record reads one function record of name into r.rec, its body and call
// records in stream order.
func (r *binReader) record(name string) error {
	r.rec = FunctionProfile{Name: name, Blocks: r.rec.Blocks[:0], Calls: r.rec.Calls[:0]}
	return r.funcProfile(&r.rec)
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
		if addOverflows(fp.TotalSamples, n) {
			r.reject(fmt.Errorf("profdata: body count overflows"))
			continue
		}
		if n != 0 {
			fp.Blocks = append(fp.Blocks, BodyCount{Loc: loc, N: n})
			fp.TotalSamples += n
		}
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
			callee, err := r.name()
			if err != nil {
				return err
			}
			n, err := r.uvarint()
			if err != nil {
				return err
			}
			if n != 0 {
				fp.Calls = append(fp.Calls, CallCount{Loc: loc, Callee: callee, N: n})
			}
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

// install adds one decoded record to the profile's entry, preserving flag
// semantics for (corrupt) inputs that repeat a record. A record whose
// total or head count would wrap the entry's is rejected instead. Its
// records are appended in stream order, for decodeBinary to sort at the
// end.
func (r *binReader) install(dst, src *FunctionProfile) {
	if addOverflows(dst.TotalSamples, src.TotalSamples) || addOverflows(dst.HeadSamples, src.HeadSamples) {
		r.reject(fmt.Errorf("profdata: repeated record's counts overflow"))
		return
	}
	dst.Blocks = append(dst.Blocks, src.Blocks...)
	dst.Calls = append(dst.Calls, src.Calls...)
	dst.TotalSamples += src.TotalSamples
	dst.HeadSamples += src.HeadSamples
	if dst.Checksum == 0 {
		dst.Checksum = src.Checksum
	}
	dst.Approx = dst.Approx || src.Approx
	dst.ShouldInline = dst.ShouldInline || src.ShouldInline
}

// decodeBinary reads a binary profile, then puts the records of entries
// that came out of order or repeated in order; a call count that would
// wrap its (location, callee) sum is malformed.
func decodeBinary(data []byte, lenient bool) (*Profile, ReadStats, error) {
	p, stats, err := readBinary(data, lenient)
	if p == nil {
		return p, stats, err
	}
	if n := p.normalize(); n > 0 {
		if !lenient {
			return nil, stats, fmt.Errorf("profdata: call count overflows")
		}
		stats.SkippedLines += n
	}
	return p, stats, err
}

func readBinary(data []byte, lenient bool) (*Profile, ReadStats, error) {
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

	// keep installs the record read whole into the entry named by entry
	// (only called for a record with no fault), or settles one that broke
	// a rule: strict aborts, lenient counts it and reads on.
	keep := func(entry func() *FunctionProfile) error {
		if r.bad == nil {
			r.install(entry(), &r.rec)
		}
		if r.bad == nil {
			return nil
		}
		if !lenient {
			return r.bad
		}
		stats.SkippedRecords++
		return nil
	}

	nf, err := r.uvarint()
	if err != nil {
		return bail(1, err)
	}
	for i := uint64(0); i < nf; i++ {
		r.bad = nil
		name, err := r.name()
		if err != nil {
			return bail(nf-i, err)
		}
		if err := r.record(name); err != nil {
			return bail(nf-i, err)
		}
		if err := keep(func() *FunctionProfile { return p.FuncProfile(name) }); err != nil {
			return nil, stats, err
		}
	}
	nctx, err := r.uvarint()
	if err != nil {
		return bail(1, err)
	}
	for i := uint64(0); i < nctx; i++ {
		r.bad = nil
		depth, err := r.uvarint()
		if err != nil {
			return bail(nctx-i, err)
		}
		if depth == 0 || depth > maxContextDepth {
			return bail(nctx-i, fmt.Errorf("profdata: context depth %d implausible", depth))
		}
		ctx := make(Context, depth)
		for j := range ctx {
			if ctx[j].Func, err = r.name(); err != nil {
				return bail(nctx-i, err)
			}
			if j != len(ctx)-1 {
				if ctx[j].Site, err = r.loc(); err != nil {
					return bail(nctx-i, err)
				}
			}
		}
		if err := r.record(ctx.Leaf()); err != nil {
			return bail(nctx-i, err)
		}
		if err := keep(func() *FunctionProfile { return p.contextProfile(ctx, true) }); err != nil {
			return nil, stats, err
		}
	}
	return p, stats, nil
}

// isBinaryProfile reports whether data starts with the binary magic.
func isBinaryProfile(data []byte) bool {
	return len(data) >= 6 && bytes.Equal(data[:4], binMagic[:])
}

// BinarySizeBytes is the size of the compact encoding.
func (p *Profile) BinarySizeBytes() int { return len(EncodeBinary(p)) }
