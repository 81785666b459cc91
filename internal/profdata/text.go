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
// extended slice. Every record sorts its locations and callee names into
// the same two scratch slices; given a dst with room for the encoding, it
// is written without growing.
func AppendText(dst []byte, p *Profile) []byte {
	dst = append(dst, "# csspgo-profile kind="...)
	dst = append(dst, p.Kind.String()...)
	if p.CS {
		dst = append(dst, " cs=1\n"...)
	} else {
		dst = append(dst, " cs=0\n"...)
	}
	e := textEncoder{buf: dst}
	for _, name := range p.SortedFuncNames() {
		e.record(name, p.Funcs[name])
	}
	for _, key := range p.SortedContextKeys() {
		e.record(key, p.Contexts[key])
	}
	return append(e.buf, endLine+"\n"...)
}

// textEncoder holds AppendText's output and its sort scratch.
type textEncoder struct {
	buf     []byte
	locs    []LocKey
	callees []string
}

// record appends one section: its header line, flags, head and checksum,
// then body and call lines in location order, callees by name.
func (e *textEncoder) record(header string, fp *FunctionProfile) {
	e.buf = append(e.buf, '[')
	e.buf = append(e.buf, header...)
	e.buf = append(e.buf, "]\n"...)
	if fp.ShouldInline {
		e.buf = append(e.buf, "shouldinline\n"...)
	}
	if fp.Approx {
		e.buf = append(e.buf, "approx\n"...)
	}
	if fp.HeadSamples != 0 {
		e.buf = append(e.buf, "head "...)
		e.count(fp.HeadSamples)
	}
	if fp.Checksum != 0 {
		e.buf = append(e.buf, "checksum "...)
		e.count(fp.Checksum)
	}
	e.locs = appendSortedLocs(e.locs[:0], fp.Blocks)
	for _, loc := range e.locs {
		e.buf = append(e.buf, "body "...)
		e.buf = append(loc.AppendTo(e.buf), ' ')
		e.count(fp.Blocks[loc])
	}
	e.locs = appendSortedLocs(e.locs[:0], fp.Calls)
	for _, loc := range e.locs {
		targets := fp.Calls[loc]
		e.callees = appendSortedKeys(e.callees[:0], targets)
		for _, c := range e.callees {
			e.buf = append(e.buf, "call "...)
			e.buf = append(loc.AppendTo(e.buf), ' ')
			e.buf = append(e.buf, c...)
			e.buf = append(e.buf, ' ')
			e.count(targets[c])
		}
	}
}

// count ends a line with n.
func (e *textEncoder) count(n uint64) {
	e.buf = append(strconv.AppendUint(e.buf, n, 10), '\n')
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
	// otherwise-readable text sections.
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
	var cur *FunctionProfile
	in := newInterner()
	// fail reports a malformed line: strict mode aborts the decode, lenient
	// mode records the damage and skips the line. A malformed section header
	// also poisons `cur` so following data lines are not misattributed.
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
			return p, stats, nil
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
			cur = nil
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
			cur = p.ContextProfile(ctx)
			continue
		}
		if cur == nil {
			if err := fail(false, "line %d: data before any section", lineNo); err != nil {
				return nil, stats, err
			}
			continue
		}
		if err := cur.parseLine(line, in); err != nil {
			if err := fail(false, "line %d: %v", lineNo, err); err != nil {
				return nil, stats, err
			}
		}
	}
	if p == nil {
		return nil, stats, fmt.Errorf("empty profile")
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

// parseLine applies one data line of a section to fp. A line that is
// malformed, names a function no encoding can carry, or would overflow a
// count leaves fp untouched.
func (fp *FunctionProfile) parseLine(line string, in *interner) error {
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
		fp.AddBody(loc, v)
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
		if addOverflows(fp.Calls[loc][fields[2]], v) {
			return fmt.Errorf("call count overflows")
		}
		fp.AddCall(loc, in.intern(fields[2]), v)
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
	return nil
}
