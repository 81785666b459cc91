package profdata

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode"
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

// encode writes the profile in text form.
func encode(w io.Writer, p *Profile) error {
	bw := bufio.NewWriter(w)
	cs := 0
	if p.CS {
		cs = 1
	}
	fmt.Fprintf(bw, "# csspgo-profile kind=%s cs=%d\n", p.Kind, cs)
	writeFP := func(header string, fp *FunctionProfile) {
		fmt.Fprintf(bw, "[%s]\n", header)
		if fp.ShouldInline {
			fmt.Fprintf(bw, "shouldinline\n")
		}
		if fp.Approx {
			fmt.Fprintf(bw, "approx\n")
		}
		if fp.HeadSamples != 0 {
			fmt.Fprintf(bw, "head %d\n", fp.HeadSamples)
		}
		if fp.Checksum != 0 {
			fmt.Fprintf(bw, "checksum %d\n", fp.Checksum)
		}
		for _, loc := range fp.sortedLocs() {
			fmt.Fprintf(bw, "body %s %d\n", loc, fp.Blocks[loc])
		}
		for _, loc := range fp.SortedCallLocs() {
			callees := make([]string, 0, len(fp.Calls[loc]))
			for c := range fp.Calls[loc] {
				callees = append(callees, c)
			}
			sort.Strings(callees)
			for _, c := range callees {
				fmt.Fprintf(bw, "call %s %s %d\n", loc, c, fp.Calls[loc][c])
			}
		}
	}
	for _, name := range p.SortedFuncNames() {
		writeFP(name, p.Funcs[name])
	}
	for _, key := range p.SortedContextKeys() {
		writeFP(key, p.Contexts[key])
	}
	fmt.Fprintf(bw, "%s\n", endLine)
	return bw.Flush()
}

// EncodeToString returns the text encoding.
func EncodeToString(p *Profile) string {
	var sb strings.Builder
	_ = encode(&sb, p)
	return sb.String()
}

// SizeBytes returns the size of the text encoding — the profile-size metric
// used by the scalability experiments (§III.B "Scalability").
func (p *Profile) SizeBytes() int { return len(EncodeToString(p)) }

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
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var p *Profile
	var cur *FunctionProfile
	// Function and callee names repeat across thousands of lines; interning
	// shares one backing string per distinct name instead of pinning a
	// substring of every scanned line.
	in := newInterner()
	lineNo := 0
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
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
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
	if err := sc.Err(); err != nil {
		if !lenient || p == nil {
			return nil, stats, err
		}
		// A scanner error (e.g. an absurdly long line) ends the input early;
		// treat whatever followed as one lost record.
		stats.SkippedRecords++
		return p, stats, nil
	}
	if p == nil {
		return nil, stats, fmt.Errorf("empty profile")
	}
	return p, stats, nil
}

// parseLine applies one data line of a section to fp. A line that is
// malformed, names a function no encoding can carry, or would overflow a
// count leaves fp untouched.
func (fp *FunctionProfile) parseLine(line string, in *interner) error {
	fields := strings.Fields(line)
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
