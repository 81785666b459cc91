package introspect

import (
	"bytes"
	"reflect"
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
	back, err := ParseFoldedText(data)
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
	entries, err := ParseFoldedText([]byte(in))
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
		if _, err := ParseFoldedText([]byte(in)); err == nil {
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
