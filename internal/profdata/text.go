package profdata

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The profile text format, modeled on llvm-profdata's extended binary /
// text sample formats but kept line-oriented:
//
//	# csspgo-profile kind=probe cs=1
//	[main]
//	head 12
//	checksum 8374
//	body 1 100
//	body 4.1 50
//	call 3 helper 25
//	[main:3 @ helper]
//	shouldinline
//	head 25
//	body 1 25
//	# end
//
// Sections are emitted in deterministic (sorted) order. TotalSamples is
// recomputed from body lines on read. The end line closes every profile:
// text cut anywhere is missing it, so a reader can tell a truncated
// profile from a complete one.

// endLine is the last line of every text profile.
const endLine = "# end"

// AppendText appends the text encoding of p to dst and returns the
// extended slice. Records are written in the order they are kept; given a
// dst with room for the encoding, it is written without growing.
func AppendText(dst []byte, p *Profile) []byte {
	dst = append(dst, "# csspgo-profile kind="...)
	dst = append(dst, p.Kind.String()...)
	if p.CS {
		dst = append(dst, " cs=1\n"...)
	} else {
		dst = append(dst, " cs=0\n"...)
	}
	for _, name := range p.SortedFuncNames() {
		dst = appendRecord(dst, name, p.Funcs[name])
	}
	for _, key := range p.SortedContextKeys() {
		dst = appendRecord(dst, key, p.Contexts[key])
	}
	return append(dst, endLine+"\n"...)
}

// appendRecord appends one section: its header line, flags, head and
// checksum, then body and call lines in location order, callees by name.
func appendRecord(dst []byte, header string, fp *FunctionProfile) []byte {
	dst = append(dst, '[')
	dst = append(dst, header...)
	dst = append(dst, "]\n"...)
	if fp.ShouldInline {
		dst = append(dst, "shouldinline\n"...)
	}
	if fp.Approx {
		dst = append(dst, "approx\n"...)
	}
	if fp.HeadSamples != 0 {
		dst = appendCount(append(dst, "head "...), fp.HeadSamples)
	}
	if fp.Checksum != 0 {
		dst = appendCount(append(dst, "checksum "...), fp.Checksum)
	}
	for _, b := range fp.Blocks {
		dst = b.Loc.AppendTo(append(dst, "body "...))
		dst = appendCount(append(dst, ' '), b.N)
	}
	for _, c := range fp.Calls {
		dst = c.Loc.AppendTo(append(dst, "call "...))
		dst = append(append(append(dst, ' '), c.Callee...), ' ')
		dst = appendCount(dst, c.N)
	}
	return dst
}

// appendCount ends a line with n.
func appendCount(dst []byte, n uint64) []byte {
	return append(strconv.AppendUint(dst, n, 10), '\n')
}

// EncodeToString returns the text encoding.
func EncodeToString(p *Profile) string { return string(AppendText(nil, p)) }

// SizeBytes returns the size of the text encoding — the profile-size metric
// used by the scalability experiments (§III.B "Scalability").
func (p *Profile) SizeBytes() int { return len(AppendText(nil, p)) }

func parseLocKey(s string) (LocKey, error) {
	if dot := strings.IndexByte(s, '.'); dot >= 0 {
		id, err := strconv.ParseInt(s[:dot], 10, 32)
		if err != nil {
			return LocKey{}, err
		}
		disc, err := strconv.ParseInt(s[dot+1:], 10, 32)
		if err != nil {
			return LocKey{}, err
		}
		return LocKey{ID: int32(id), Disc: int32(disc)}, nil
	}
	id, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		return LocKey{}, err
	}
	return LocKey{ID: int32(id)}, nil
}

// ReadStats reports what a lenient decode had to discard. A zero value
// means the input decoded cleanly.
type ReadStats struct {
	// SkippedRecords counts whole sections (function/context records)
	// dropped because their header was malformed, plus — for the binary
	// format, where a corrupt varint stream cannot be resynchronized —
	// records declared by the header but unreadable.
	SkippedRecords int
	// SkippedLines counts individual malformed data lines dropped from
	// otherwise-readable text sections, and call counts either decoder
	// drops because they would wrap the sum for their location and callee.
	SkippedLines int
}

func (s ReadStats) clean() bool { return s == ReadStats{} }

// Decode parses a profile in either encoding — binary when the data starts
// with the binary magic, text otherwise — rejecting any malformed input.
func Decode(data []byte) (*Profile, error) {
	p, _, err := decode(data, false)
	return p, err
}

// DecodeLenient parses a profile in either encoding, keeping what it can of
// a damaged one; the ReadStats say how much was dropped. Text input loses
// only the malformed sections and data lines. The binary varint stream has
// no record framing to resynchronize on, so everything from the first bad
// byte onward is lost and SkippedRecords counts the records the header
// declared but that could not be read. Only a missing/unreadable header is
// still an error — without it the profile kind is unknowable. Use it for
// profiles that crossed a network or a disk that may have damaged them;
// Decode everywhere else.
func DecodeLenient(data []byte) (*Profile, ReadStats, error) {
	return decode(data, true)
}

func decode(data []byte, lenient bool) (*Profile, ReadStats, error) {
	if isBinaryProfile(data) {
		return decodeBinary(data, lenient)
	}
	return decodeText(data, lenient)
}

// truncated reports whether text lacks its end line, newline included; a
// profile cut anywhere does.
func truncated(data []byte) bool {
	body := bytes.TrimRightFunc(data, unicode.IsSpace)
	last := body[bytes.LastIndexByte(body, '\n')+1:]
	return string(bytes.TrimSpace(last)) != endLine || bytes.IndexByte(data[len(body):], '\n') < 0
}

// lastSectionStart returns the offset of the last line that opens a
// section, or len(data) when no line does.
func lastSectionStart(data []byte) int {
	for end := len(data); end > 0; {
		start := bytes.LastIndexByte(data[:end], '\n') + 1
		if bytes.HasPrefix(bytes.TrimSpace(data[start:end]), []byte("[")) {
			return start
		}
		end = start - 1
	}
	return len(data)
}

// addOverflows reports whether a+b wraps around.
func addOverflows(a, b uint64) bool { return a+b < a }

// maxTextLine bounds one line of text, its newline excluded; a longer line
// ends the input (strict decode fails, lenient decode keeps what came
// before it and counts one lost record).
const maxTextLine = 16<<20 - 1

func decodeText(data []byte, lenient bool) (*Profile, ReadStats, error) {
	var stats ReadStats
	if truncated(data) {
		// The cut can only have damaged the last section: drop it whole.
		if !lenient {
			return nil, stats, fmt.Errorf("profdata: text profile truncated (no %q line)", endLine)
		}
		stats.SkippedRecords++
		data = data[:lastSectionStart(data)]
	}
	// Lines and fields are substrings of one copy of the input. Names are
	// interned, and the interner keeps a copy of its own, so the profile
	// never pins the text.
	text := string(data)
	var p *Profile
	var sec section
	in := newInterner()
	// fail reports a malformed line: strict mode aborts the decode, lenient
	// mode records the damage and skips the line. A malformed section header
	// also poisons the section so following data lines are not
	// misattributed.
	fail := func(record bool, format string, args ...any) error {
		if !lenient {
			return fmt.Errorf(format, args...)
		}
		if record {
			stats.SkippedRecords++
		} else {
			stats.SkippedLines++
		}
		return nil
	}
	for lineNo := 1; text != ""; lineNo++ {
		line, rest, _ := strings.Cut(text, "\n")
		text = rest
		if len(line) > maxTextLine {
			if !lenient || p == nil {
				return nil, stats, fmt.Errorf("line %d: longer than %d bytes", lineNo, maxTextLine)
			}
			// Whatever followed is lost with it: count one record.
			stats.SkippedRecords++
			break
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if p == nil {
				kind := LineBased
				if strings.Contains(line, "kind=probe") {
					kind = ProbeBased
				}
				p = New(kind, strings.Contains(line, "cs=1"))
			}
			continue
		}
		if p == nil {
			return nil, stats, fmt.Errorf("line %d: missing profile header", lineNo)
		}
		if strings.HasPrefix(line, "[") {
			sec.end(nil)
			if !strings.HasSuffix(line, "]") {
				if err := fail(true, "line %d: malformed section %q", lineNo, line); err != nil {
					return nil, stats, err
				}
				continue
			}
			// A one-frame key names a base profile: ContextProfile folds it.
			ctx, err := ParseContext(line[1 : len(line)-1])
			if err != nil {
				if err := fail(true, "line %d: %v", lineNo, err); err != nil {
					return nil, stats, err
				}
				continue
			}
			for i := range ctx {
				ctx[i].Func = in.intern(ctx[i].Func)
			}
			sec.end(p.contextProfile(ctx, true))
			continue
		}
		if sec.fp == nil {
			if err := fail(false, "line %d: data before any section", lineNo); err != nil {
				return nil, stats, err
			}
			continue
		}
		if err := sec.parseLine(line, in); err != nil {
			if err := fail(false, "line %d: %v", lineNo, err); err != nil {
				return nil, stats, err
			}
		}
	}
	if p == nil {
		return nil, stats, fmt.Errorf("empty profile")
	}
	sec.end(nil)
	// Records went in as they came; put any that came out of order or
	// repeated in order now. A call line whose count wraps its sum is
	// malformed.
	if n := p.normalize(); n > 0 {
		if !lenient {
			return nil, stats, fmt.Errorf("call count overflows")
		}
		stats.SkippedLines += n
	}
	return p, stats, nil
}

// appendFields appends the whitespace-separated fields of s to dst, as
// strings.Fields splits them. Only a line holding a byte >= 0x80 can
// contain a Unicode space, so only such a line goes to strings.Fields.
func appendFields(dst []string, s string) []string {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return append(dst, strings.Fields(s)...)
		}
	}
	for i := 0; i < len(s); {
		for i < len(s) && asciiSpace(s[i]) {
			i++
		}
		start := i
		for i < len(s) && !asciiSpace(s[i]) {
			i++
		}
		if start < i {
			dst = append(dst, s[start:i])
		}
	}
	return dst
}

// asciiSpace reports the ASCII bytes unicode.IsSpace accepts.
func asciiSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\v' || b == '\f' || b == '\r'
}

// section is the text section being read: its profile, and the body and
// call records read so far, in stream order. The records move into the
// profile when the section ends, so its lists are allocated once, at their
// size.
type section struct {
	fp     *FunctionProfile
	blocks []BodyCount
	calls  []CallCount
}

// end appends the section's records to its profile and starts reading
// into next (nil: lines go nowhere until the next header).
func (s *section) end(next *FunctionProfile) {
	if s.fp != nil {
		s.fp.Blocks = append(s.fp.Blocks, s.blocks...)
		s.fp.Calls = append(s.fp.Calls, s.calls...)
	}
	clear(s.calls)
	s.fp, s.blocks, s.calls = next, s.blocks[:0], s.calls[:0]
}

// parseLine applies one data line to the section, appending a body or call
// record as it comes. A line that is malformed, names a function no
// encoding can carry, or would overflow a head or body count changes
// nothing.
func (s *section) parseLine(line string, in *interner) error {
	fp := s.fp
	var buf [4]string
	fields := appendFields(buf[:0], line)
	switch fields[0] {
	case "shouldinline":
		fp.ShouldInline = true
	case "approx":
		fp.Approx = true
	case "head", "checksum":
		if len(fields) != 2 {
			return fmt.Errorf("bad %s", fields[0])
		}
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return err
		}
		if fields[0] == "checksum" {
			fp.Checksum = v
		} else if addOverflows(fp.HeadSamples, v) {
			return fmt.Errorf("head count overflows")
		} else {
			fp.HeadSamples += v
		}
	case "body":
		if len(fields) != 3 {
			return fmt.Errorf("bad body")
		}
		loc, err := parseLocKey(fields[1])
		if err != nil {
			return err
		}
		v, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return err
		}
		// Every body count is part of TotalSamples, so no sum can wrap
		// unless this one does.
		if addOverflows(fp.TotalSamples, v) {
			return fmt.Errorf("body count overflows")
		}
		if v != 0 {
			s.blocks = append(s.blocks, BodyCount{Loc: loc, N: v})
			fp.TotalSamples += v
		}
	case "call":
		if len(fields) != 4 {
			return fmt.Errorf("bad call")
		}
		loc, err := parseLocKey(fields[1])
		if err != nil {
			return err
		}
		if err := checkName(fields[2]); err != nil {
			return err
		}
		v, err := strconv.ParseUint(fields[3], 10, 64)
		if err != nil {
			return err
		}
		// Whether the sum of this (location, callee) wraps is settled once
		// the records are in order.
		if v != 0 {
			s.calls = append(s.calls, CallCount{Loc: loc, Callee: in.intern(fields[2]), N: v})
		}
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
	return nil
}
