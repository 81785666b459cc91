package profdata

import (
	"bytes"
	"strings"
	"testing"
)

// fuzzSeedProfile builds a representative profile exercising every encoder
// feature: base + context sections, calls, checksums, flags, discriminators.
func fuzzSeedProfile() *Profile {
	p := New(ProbeBased, true)
	m := p.FuncProfile("main")
	m.Checksum = 8374
	m.HeadSamples = 12
	m.AddBody(LocKey{ID: 1}, 100)
	m.AddBody(LocKey{ID: 4, Disc: 1}, 50)
	m.AddCall(LocKey{ID: 3}, "helper", 25)
	ctx := NewContext("main", 3, "helper")
	c := p.ContextProfile(ctx)
	c.ShouldInline = true
	c.Approx = true
	c.HeadSamples = 25
	c.AddBody(LocKey{ID: 1}, 25)
	return p
}

// checkFixpoint asserts that a decoded profile is a fixed point of both
// codecs at round 1 — encode(decode(encode(p))) = encode(p) in text and in
// binary — and that the two encodings agree: the binary round trip
// re-encodes to the text encoding.
func checkFixpoint(t *testing.T, p *Profile) {
	t.Helper()
	text := EncodeToString(p)
	back, err := Decode([]byte(text))
	if err != nil {
		t.Fatalf("re-decoding own text encoding failed: %v\n%s", err, text)
	}
	if got := EncodeToString(back); got != text {
		t.Fatalf("text encoding not a fixed point:\n-- encode(p):\n%s\n-- encode(decode(encode(p))):\n%s", text, got)
	}
	bin := EncodeBinary(p)
	back, err = Decode(bin)
	if err != nil {
		t.Fatalf("re-decoding own binary encoding failed: %v", err)
	}
	if got := EncodeBinary(back); !bytes.Equal(got, bin) {
		t.Fatalf("binary encoding not a fixed point (%d vs %d bytes)", len(bin), len(got))
	}
	if got := EncodeToString(back); got != text {
		t.Fatalf("binary round trip disagrees with the text encoding:\n-- text:\n%s\n-- via binary:\n%s", text, got)
	}
}

// checkRecords fails t if a profile of p has records out of order,
// repeating a key, or an empty non-nil list.
func checkRecords(t *testing.T, p *Profile) {
	t.Helper()
	for _, fps := range []map[string]*FunctionProfile{p.Funcs, p.Contexts} {
		for key, fp := range fps {
			if msg := recordsSortedUnique(fp); msg != "" {
				t.Fatalf("decoded [%s]: %s", key, msg)
			}
		}
	}
}

// checkDecode holds both decode entry points to their contract on data:
// no panic, strict and lenient agree on well-formed input and lenient
// reports damage where strict fails, whatever decodes has sorted, unique
// records, and it is a round-1 fixed point of both codecs.
func checkDecode(t *testing.T, data []byte) {
	strict, strictErr := Decode(data)
	lenient, stats, lenientErr := DecodeLenient(data)
	if strict != nil {
		checkRecords(t, strict)
	}
	if strictErr == nil {
		if lenientErr != nil {
			t.Fatalf("strict decode ok but lenient failed: %v", lenientErr)
		}
		if !stats.clean() {
			t.Fatalf("strict decode ok but lenient skipped records: %+v", stats)
		}
		if EncodeToString(strict) != EncodeToString(lenient) {
			t.Fatalf("strict and lenient decode disagree on well-formed input")
		}
	} else if lenientErr == nil && stats.clean() {
		t.Fatalf("strict decode failed (%v) but lenient reported clean input", strictErr)
	}
	if lenient != nil {
		checkRecords(t, lenient)
		checkFixpoint(t, lenient)
	}
}

// FuzzReadText runs checkDecode from a text seed corpus.
func FuzzReadText(f *testing.F) {
	enc := EncodeToString(fuzzSeedProfile())
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add(strings.Replace(enc, "body", "bogus", 1))
	f.Add("# csspgo-profile kind=line cs=0\n[f]\nbody 1 1\n# end\n")
	f.Add("# csspgo-profile kind=line cs=0\n[f]\nbody 1 1\n")
	f.Add("# csspgo-profile kind=probe cs=1\n[f]\nbody 1 18446744073709551615\nbody 2 1\n[a b]\ncall 1 g:h 2\n# end\n")
	f.Add("# csspgo-profile kind=probe cs=1\n[f]\nbody 3 1\nbody 1 2\nbody 3 4\ncall 2 h 1\ncall 2 g 3\ncall 2 h 18446744073709551615\n[g]\n[f]\nbody 2 5\n# end\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) { checkDecode(t, []byte(s)) })
}

// FuzzReadBinary runs checkDecode from a binary seed corpus. Inputs without
// the binary magic reach the text reader through the same two entry points.
func FuzzReadBinary(f *testing.F) {
	p := fuzzSeedProfile()
	p.Contexts["main"] = &FunctionProfile{Name: "main", Context: NewContext("main"), HeadSamples: 1}
	enc := EncodeBinary(p)
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("CSPF"))
	f.Add([]byte{})
	f.Fuzz(checkDecode)
}
