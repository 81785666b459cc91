package profdata

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// referenceEncode is the text encoder as it was before it appended into
// one buffer: fmt.Fprintf through a bufio.Writer, kept so
// TestTextCodecMatchesReference can hold the live encoder to its bytes.
// It sorts copies of each profile's records itself, as it sorted the map
// keys that held them, rather than trusting the order they are kept in.
func referenceEncode(w io.Writer, p *Profile) error {
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
		locLess := func(a, b LocKey) bool { return a.ID < b.ID || a.ID == b.ID && a.Disc < b.Disc }
		bodies := append([]BodyCount(nil), fp.Blocks...)
		sort.Slice(bodies, func(i, j int) bool { return locLess(bodies[i].Loc, bodies[j].Loc) })
		for _, b := range bodies {
			fmt.Fprintf(bw, "body %s %d\n", b.Loc, b.N)
		}
		calls := append([]CallCount(nil), fp.Calls...)
		sort.Slice(calls, func(i, j int) bool {
			a, b := calls[i], calls[j]
			return locLess(a.Loc, b.Loc) || a.Loc == b.Loc && a.Callee < b.Callee
		})
		for _, c := range calls {
			fmt.Fprintf(bw, "call %s %s %d\n", c.Loc, c.Callee, c.N)
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

func referenceEncodeToString(p *Profile) string {
	var sb strings.Builder
	_ = referenceEncode(&sb, p)
	return sb.String()
}

// referenceDecodeText is the text decoder as it was before it split lines
// and fields over the input itself: a bufio.Scanner with a 16 MiB line
// bound and strings.Fields per line, kept verbatim.
func referenceDecodeText(data []byte, lenient bool) (*Profile, ReadStats, error) {
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
	in := newInterner()
	lineNo := 0
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
		if err := referenceParseLine(cur, line, in); err != nil {
			if err := fail(false, "line %d: %v", lineNo, err); err != nil {
				return nil, stats, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		if !lenient || p == nil {
			return nil, stats, err
		}
		stats.SkippedRecords++
		return p, stats, nil
	}
	if p == nil {
		return nil, stats, fmt.Errorf("empty profile")
	}
	return p, stats, nil
}

// referenceParseLine is the data-line parser that went with
// referenceDecodeText, kept verbatim but for reading a call's running
// count through callAt.
func referenceParseLine(fp *FunctionProfile, line string, in *interner) error {
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
		if addOverflows(callAt(fp, loc, fields[2]), v) {
			return fmt.Errorf("call count overflows")
		}
		fp.AddCall(loc, in.intern(fields[2]), v)
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
	return nil
}

// callAt returns fp's count for calls from loc to callee, found by a scan
// that assumes nothing of the records' order.
func callAt(fp *FunctionProfile, loc LocKey, callee string) uint64 {
	var n uint64
	for _, c := range fp.Calls {
		if c.Loc == loc && c.Callee == callee {
			n += c.N
		}
	}
	return n
}

// textCodecInputs are the inputs both text codecs are compared on: every
// golden text profile, each cut at 64 evenly spaced offsets, lines split
// by the Unicode spaces strings.Fields and strings.TrimSpace honour, and
// lines either side of the 16 MiB line bound.
func textCodecInputs(t *testing.T) map[string][]byte {
	t.Helper()
	const cuts = 64
	inputs := map[string][]byte{}
	for path, text := range goldenTextProfiles(t) {
		inputs[path] = text
		for i := 1; i <= cuts; i++ {
			cut := len(text) * i / (cuts + 1)
			inputs[fmt.Sprintf("%s[:%d]", path, cut)] = text[:cut]
		}
	}
	const header = "# csspgo-profile kind=probe cs=1\n"
	for name, body := range map[string]string{
		"nbsp separators":        "[main]\nbody\u00a01\u00a05\nhead\u00a03\ncall 1\u00a0helper\u00a02\n",
		"nel separators":         "\u0085[main]\u0085\nbody\u00851 5\n\u0085call\u00851 helper 2\u0085\n",
		"line separator u+2028":  "[main]\nbody 1\u20285\n\u2028\n",
		"nbsp inside a name":     "[ma\u00a0in]\nbody 1 5\n[main]\ncall 1 hel\u00a0per 2\n",
		"non-space high bytes":   "[méin]\nbody 1 5\n[main]\nbody 1é5\ncall 1 hélper 2\n",
		"invalid utf-8":          "[main]\nbody 1 5\xff\ncall 1 \x85helper 2\nbody\xa0 1 5\n",
		"carriage returns":       "[main]\r\nbody 1 5\r\n\r\ncall 1 helper 2\r\n",
		"blank and comment runs": "\n\n# note\n[main]\n\n# another\nbody 1 5\n\t \n",
		"vertical tab and ff":    "[main]\v\nbody\f1\v5\n",
		"data before a section":  "body 1 5\n[main]\nbody 1 5\n",
		"unknown directive":      "[main]\nbogus 1 5\nbody 1 5\n",
		"empty section header":   "[]\nbody 1 5\n[main\nbody 1 5\n",
		"wrong field counts":     "[main]\nbody 1\nhead\nhead 1 2\ncall 1 helper\nchecksum 1 2\nbody 1 5\n",
	} {
		inputs[name] = []byte(header + body + endLine + "\n")
		inputs[name+", no end line"] = []byte(header + body)
	}
	inputs["no header"] = []byte("[main]\nbody 1 5\n# end\n")
	inputs["empty"] = nil
	inputs["header only"] = []byte(header + endLine + "\n")
	// bufio.Scanner's 16 MiB buffer holds a line with its newline: a line
	// of 16 MiB - 1 bytes is read, one byte more is not.
	const bound = 16 << 20
	for _, n := range []int{bound - 1, bound} {
		long := header + "[main]\nbody 1 5\n[f]\nbody 1 " + strings.Repeat("7", n-len("body 1 ")) + "\nbody 2 3\n" + endLine + "\n"
		inputs[fmt.Sprintf("line of %d bytes", n)] = []byte(long)
	}
	return inputs
}

// sameDecode reports how two decodes of one input differ ("" when they
// agree on the profile, the ReadStats and whether it is an error).
func sameDecode(wantP *Profile, wantStats ReadStats, wantErr error, gotP *Profile, gotStats ReadStats, gotErr error) string {
	if (wantErr == nil) != (gotErr == nil) {
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	}
	if gotStats != wantStats {
		return fmt.Sprintf("stats %+v, want %+v", gotStats, wantStats)
	}
	if (wantP == nil) != (gotP == nil) {
		return fmt.Sprintf("profile %v, want %v", gotP, wantP)
	}
	if wantP == nil {
		return ""
	}
	if gotP.Kind != wantP.Kind || gotP.CS != wantP.CS ||
		!reflect.DeepEqual(gotP.Funcs, wantP.Funcs) || !reflect.DeepEqual(gotP.Contexts, wantP.Contexts) {
		return fmt.Sprintf("profile %v, want %v", gotP, wantP)
	}
	return ""
}

// checkTextCodecMatchesReference decodes data with both readers, strict
// and lenient, and compares every outcome; what decodes must encode to
// the reference encoder's bytes.
func checkTextCodecMatchesReference(t *testing.T, name string, data []byte) {
	t.Helper()
	for _, lenient := range []bool{false, true} {
		wantP, wantStats, wantErr := referenceDecodeText(data, lenient)
		gotP, gotStats, gotErr := decodeText(data, lenient)
		if diff := sameDecode(wantP, wantStats, wantErr, gotP, gotStats, gotErr); diff != "" {
			t.Errorf("%s (lenient=%v): %s", name, lenient, diff)
			continue
		}
		if gotP == nil {
			continue
		}
		if got, want := EncodeToString(gotP), referenceEncodeToString(wantP); got != want {
			t.Errorf("%s (lenient=%v): encoding differs from the reference\n-- got:\n%.2000s\n-- want:\n%.2000s", name, lenient, got, want)
		}
	}
}

// TestTextCodecMatchesReference holds the text encoder and decoder to the
// versions kept above: the same bytes out, and the same profile, ReadStats
// and error-ness in, strict and lenient, over textCodecInputs.
func TestTextCodecMatchesReference(t *testing.T) {
	inputs := textCodecInputs(t)
	for name, data := range inputs {
		checkTextCodecMatchesReference(t, name, data)
	}
	// Either side of the line bound: the shorter long line is read and
	// skipped as a malformed count, the longer one ends the input.
	for n, want := range map[int]ReadStats{16<<20 - 1: {SkippedLines: 1}, 16 << 20: {SkippedRecords: 1}} {
		if _, stats, err := decodeText(inputs[fmt.Sprintf("line of %d bytes", n)], true); err != nil || stats != want {
			t.Errorf("line of %d bytes: lenient decode %+v, %v; want %+v", n, stats, err, want)
		}
	}
	// Encoding alone, on in-memory profiles no decoder produces: flags,
	// discriminators, a one-frame context stored behind ContextProfile's
	// back, and names the decoders refuse.
	p := fuzzSeedProfile()
	p.Contexts["main"] = &FunctionProfile{Name: "main", Context: NewContext("main"), HeadSamples: 1}
	p.FuncProfile("a b").AddCall(LocKey{ID: -3, Disc: 7}, "c@d", 1<<63)
	for _, q := range []*Profile{p, New(LineBased, false), fuzzSeedProfile().Flat()} {
		if got, want := EncodeToString(q), referenceEncodeToString(q); got != want {
			t.Errorf("encoding of %v differs from the reference\n-- got:\n%s\n-- want:\n%s", q, got, want)
		}
	}
}

// FuzzTextMatchesReference runs the comparison of
// TestTextCodecMatchesReference on fuzzer-chosen input.
func FuzzTextMatchesReference(f *testing.F) {
	enc := EncodeToString(fuzzSeedProfile())
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add(strings.ReplaceAll(enc, " ", "\u00a0"))
	f.Add(strings.ReplaceAll(enc, "\n", "\r\n"))
	f.Add("# csspgo-profile kind=line cs=0\n[f]\nbody 1 1\n# end\n")
	f.Add("# csspgo-profile kind=probe cs=1\n[f]\nbody 1 18446744073709551615\nbody 2 1\n[a b]\ncall 1 g:h 2\n# end\n")
	f.Add("# csspgo-profile kind=probe cs=1\n[f]\nbody 3 1\nbody 1 2\nbody 3 4\ncall 2 h 1\ncall 2 g 3\ncall 2 h 18446744073709551615\n[g]\n[f]\nbody 2 5\n# end\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) { checkTextCodecMatchesReference(t, "input", []byte(s)) })
}
