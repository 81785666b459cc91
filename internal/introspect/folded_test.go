package introspect

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"csspgo/internal/profdata"
)

// testProfile builds a small CS probe-based profile with both context
// profiles and a flat base residue.
func testProfile() *profdata.Profile {
	p := profdata.New(profdata.ProbeBased, true)
	base := p.FuncProfile("main")
	base.AddBody(profdata.LocKey{ID: 1}, 100)
	base.AddBody(profdata.LocKey{ID: 2}, 60)

	c1 := p.ContextProfile(profdata.NewContext("main", 3, "foo"))
	c1.AddBody(profdata.LocKey{ID: 1}, 60)
	c1.AddBody(profdata.LocKey{ID: 2}, 40)

	c2 := p.ContextProfile(profdata.NewContext("main", 3, "foo", 2, "bar"))
	c2.AddBody(profdata.LocKey{ID: 1}, 40)
	return p
}

func TestFoldedExport(t *testing.T) {
	entries := Folded(testProfile())
	got := string(EncodeFoldedText(entries))
	want := "main 160\nmain:3;foo 100\nmain:3;foo:2;bar 40\n"
	if got != want {
		t.Fatalf("folded export:\n got %q\nwant %q", got, want)
	}
}

func TestFoldedMergesDuplicateStacks(t *testing.T) {
	frames := profdata.Context{{Func: "main", Site: profdata.LocKey{ID: 3}}, {Func: "foo"}}
	entries := canonicalize([]Entry{
		{Frames: frames, Weight: 5},
		{Frames: frames, Weight: 7},
	})
	if len(entries) != 1 || entries[0].Weight != 12 {
		t.Fatalf("merge failed: %+v", entries)
	}
}

func TestTopOrdering(t *testing.T) {
	entries := Folded(testProfile())
	top := Top(entries, 2)
	if len(top) != 2 || top[0].Key() != "main" || top[1].Key() != "main:3;foo" {
		t.Fatalf("top = %+v", top)
	}
	if got := Top(entries, 100); len(got) != len(entries) {
		t.Fatalf("Top over-truncated: %d", len(got))
	}
}

func TestFoldedTextRoundTrip(t *testing.T) {
	entries := Folded(testProfile())
	data := EncodeFoldedText(entries)
	back, err := parseFoldedText(data)
	if err != nil {
		t.Fatalf("ParseFoldedText: %v", err)
	}
	if !reflect.DeepEqual(entries, back) {
		t.Fatalf("text round trip:\n in  %+v\n out %+v", entries, back)
	}
	// Re-encoding parsed entries must be byte-identical.
	if again := EncodeFoldedText(back); !bytes.Equal(data, again) {
		t.Fatalf("re-encode differs:\n%q\n%q", data, again)
	}
}

func TestParseFoldedTextSkipsCommentsAndBlank(t *testing.T) {
	in := "# comment\n\nmain 10\n\nmain 5\n"
	entries, err := parseFoldedText([]byte(in))
	if err != nil {
		t.Fatalf("ParseFoldedText: %v", err)
	}
	if len(entries) != 1 || entries[0].Weight != 15 {
		t.Fatalf("entries = %+v", entries)
	}
}

func TestParseFoldedTextErrors(t *testing.T) {
	bad := []string{
		"main",                // no weight
		"main ten",            // bad weight
		"main:x;foo 3",        // bad site
		"main:01;foo 3",       // non-canonical site
		"main:1.0;foo 3",      // zero discriminator
		";foo 3",              // empty frame
		"main;foo 3",          // non-leaf frame missing site
		"main:1;fo o 3 4 5 x", // bad weight token
	}
	for _, in := range bad {
		if _, err := parseFoldedText([]byte(in)); err == nil {
			t.Errorf("ParseFoldedText(%q) should fail", in)
		}
	}
}

func TestFoldedLineBasedProfile(t *testing.T) {
	p := profdata.New(profdata.LineBased, false)
	p.FuncProfile("alpha").AddBody(profdata.LocKey{ID: 2}, 9)
	p.FuncProfile("beta").AddBody(profdata.LocKey{ID: 1}, 4)
	got := string(EncodeFoldedText(Folded(p)))
	if got != "alpha 9\nbeta 4\n" {
		t.Fatalf("flat folded = %q", got)
	}
}

// parseFoldedText parses the folded text format back into canonical
// (merged, sorted) entries. Duplicate stacks accumulate; malformed lines
// are errors, blank lines and '#' comments are skipped.
func parseFoldedText(data []byte) ([]Entry, error) {
	var entries []Entry
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("folded: line %d: missing weight", ln+1)
		}
		weight, err := strconv.ParseUint(line[sp+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("folded: line %d: bad weight %q", ln+1, line[sp+1:])
		}
		frames, err := parseStack(line[:sp])
		if err != nil {
			return nil, fmt.Errorf("folded: line %d: %w", ln+1, err)
		}
		if weight == 0 {
			continue
		}
		entries = append(entries, Entry{Frames: frames, Weight: weight})
	}
	return canonicalize(entries), nil
}

// parseStack parses "main:2;foo:5.1;bar" into context frames.
func parseStack(s string) (profdata.Context, error) {
	if s == "" {
		return nil, fmt.Errorf("empty stack")
	}
	parts := strings.Split(s, ";")
	frames := make(profdata.Context, 0, len(parts))
	for i, part := range parts {
		if i == len(parts)-1 {
			if !validFuncName(part) {
				return nil, fmt.Errorf("bad leaf frame %q", part)
			}
			frames = append(frames, profdata.ContextFrame{Func: part})
			continue
		}
		colon := strings.LastIndexByte(part, ':')
		if colon < 0 {
			return nil, fmt.Errorf("frame %q missing call site", part)
		}
		fn := part[:colon]
		if !validFuncName(fn) {
			return nil, fmt.Errorf("bad frame function %q", fn)
		}
		site, err := parseSite(part[colon+1:])
		if err != nil {
			return nil, fmt.Errorf("frame %q: %w", part, err)
		}
		frames = append(frames, profdata.ContextFrame{Func: fn, Site: site})
	}
	return frames, nil
}
