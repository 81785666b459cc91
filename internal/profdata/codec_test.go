package profdata

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// goldenTextProfiles returns every golden text profile the engine's bytes
// are pinned to, by path: 14 programs × {cs, probe, autofdo}.
func goldenTextProfiles(t *testing.T) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "pgo", "testdata", "golden", "*.prof"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 42 {
		t.Fatalf("want 42 golden text profiles, got %d", len(paths))
	}
	out := map[string][]byte{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out[path] = data
	}
	return out
}

func TestContextProfileOfOneFrameIsBase(t *testing.T) {
	p := New(ProbeBased, true)
	if got, want := p.ContextProfile(NewContext("main")), p.FuncProfile("main"); got != want {
		t.Fatalf("ContextProfile([main]) = %p, want the base profile %p", got, want)
	}
	if cp := p.ContextProfile(NewContext("main", 3, "helper")); cp == p.FuncProfile("helper") || len(p.Contexts) != 1 {
		t.Fatalf("a two-frame context must be a context profile; contexts = %v", p.SortedContextKeys())
	}
}

// TestGoldenProfilesRoundTrip: the codecs are exact on every golden text
// profile. Decoding and re-encoding gives back the same text, and so does
// going through the binary encoding.
func TestGoldenProfilesRoundTrip(t *testing.T) {
	for path, text := range goldenTextProfiles(t) {
		p, err := Decode(text)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got := EncodeToString(p); got != string(text) {
			t.Errorf("%s: encode(decode(t)) != t\n-- got:\n%s", path, got)
			continue
		}
		back, err := Decode(EncodeBinary(p))
		if err != nil {
			t.Fatalf("%s: binary: %v", path, err)
		}
		if got := EncodeToString(back); got != string(text) {
			t.Errorf("%s: the binary round trip re-encodes differently\n-- got:\n%s", path, got)
		}
	}
}

// TestTruncatedTextNeverDecodesClean cuts every golden text profile at 64
// evenly spaced offsets inside it: strict decode must refuse each cut and
// lenient decode must report at least one skipped record.
func TestTruncatedTextNeverDecodesClean(t *testing.T) {
	const cuts = 64
	for path, text := range goldenTextProfiles(t) {
		for i := 1; i <= cuts; i++ {
			cut := len(text) * i / (cuts + 1)
			if _, err := Decode(text[:cut]); err == nil {
				t.Errorf("%s cut at %d of %d: strict decode accepted it", path, cut, len(text))
			}
			_, stats, err := DecodeLenient(text[:cut])
			if err == nil && stats.SkippedRecords < 1 {
				t.Errorf("%s cut at %d of %d: lenient decode reported %+v", path, cut, len(text), stats)
			}
		}
	}
}

// TestDecodersRejectWhatTheyCannotCarry holds both readers to the same
// rules: a name with whitespace, ':' or '@', an empty name, and a count
// whose accumulation wraps are refused by strict decode and skipped by
// lenient decode, in either encoding, and what lenient keeps is a fixed
// point of both codecs.
func TestDecodersRejectWhatTheyCannotCarry(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(p *Profile)
	}{
		{"space in a name", func(p *Profile) { p.FuncProfile("a b").AddBody(LocKey{ID: 1}, 1) }},
		{"empty name", func(p *Profile) { p.FuncProfile("").AddBody(LocKey{ID: 1}, 1) }},
		{"colon in a frame", func(p *Profile) { p.ContextProfile(NewContext("x:y", 1, "f")).AddBody(LocKey{ID: 1}, 1) }},
		{"at sign in a callee", func(p *Profile) { p.FuncProfile("f").AddCall(LocKey{ID: 1}, "g@h", 1) }},
		{"body sum overflows", func(p *Profile) {
			fp := p.FuncProfile("f")
			fp.AddBody(LocKey{ID: 1}, math.MaxUint64)
			fp.AddBody(LocKey{ID: 2}, 1)
		}},
		{"head sum overflows", func(p *Profile) {
			p.FuncProfile("f").HeadSamples = math.MaxUint64
			// A one-frame context stored behind ContextProfile's back
			// repeats f's record in both encodings.
			p.Contexts["f"] = &FunctionProfile{Name: "f", Context: NewContext("f"), HeadSamples: 1}
		}},
	} {
		p := New(ProbeBased, true)
		p.FuncProfile("main").AddBody(LocKey{ID: 1}, 5)
		tc.build(p)
		for enc, data := range map[string][]byte{"text": []byte(EncodeToString(p)), "binary": EncodeBinary(p)} {
			if _, err := Decode(data); err == nil {
				t.Errorf("%s (%s): strict decode accepted it", tc.name, enc)
			}
			kept, stats, err := DecodeLenient(data)
			if err != nil || stats.clean() {
				t.Errorf("%s (%s): lenient decode: %+v, %v", tc.name, enc, stats, err)
				continue
			}
			if kept.Funcs["main"] == nil {
				t.Errorf("%s (%s): lenient decode lost the good record", tc.name, enc)
			}
			checkFixpoint(t, kept)
		}
	}
}
