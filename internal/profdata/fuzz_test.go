package profdata

import (
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

// FuzzReadText checks, from a text seed corpus, that Decode/DecodeLenient
// never panic, that strict and lenient decoding agree on well-formed input,
// and that whatever decodes re-encodes (as text) to a stable fixed point.
func FuzzReadText(f *testing.F) {
	p := fuzzSeedProfile()
	enc := EncodeToString(p)
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add(strings.Replace(enc, "body", "bogus", 1))
	f.Add("# csspgo-profile kind=line cs=0\n[f]\nbody 1 1\n")
	f.Add("")

	f.Fuzz(func(t *testing.T, s string) {
		strict, strictErr := Decode([]byte(s))
		lenient, stats, lenientErr := DecodeLenient([]byte(s))
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
		// Whatever we got back must re-encode to a stable fixed point. The
		// first re-encode may still shed counter-wraparound zero entries, so
		// compare the second round against the third.
		src := strict
		if src == nil {
			src = lenient
		}
		if src == nil {
			return
		}
		enc1 := EncodeToString(src)
		p2, err := Decode([]byte(enc1))
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v\n%s", err, enc1)
		}
		enc2 := EncodeToString(p2)
		p3, err := Decode([]byte(enc2))
		if err != nil {
			t.Fatalf("re-decoding settled encoding failed: %v", err)
		}
		if enc3 := EncodeToString(p3); enc3 != enc2 {
			t.Fatalf("text encoding not a fixed point:\n-- round 2:\n%s\n-- round 3:\n%s", enc2, enc3)
		}
	})
}

// FuzzReadBinary checks the same properties from a binary seed corpus, with
// the binary encoding as the fixed point. Inputs without the binary magic
// reach the text reader through the same two entry points.
func FuzzReadBinary(f *testing.F) {
	p := fuzzSeedProfile()
	enc := EncodeBinary(p)
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("CSPF"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		strict, strictErr := Decode(data)
		lenient, stats, lenientErr := DecodeLenient(data)
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
		src := strict
		if src == nil {
			src = lenient
		}
		if src == nil {
			return
		}
		enc1 := EncodeBinary(src)
		p2, err := Decode(enc1)
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v", err)
		}
		enc2 := EncodeBinary(p2)
		p3, err := Decode(enc2)
		if err != nil {
			t.Fatalf("re-decoding settled encoding failed: %v", err)
		}
		if enc3 := EncodeBinary(p3); string(enc3) != string(enc2) {
			t.Fatalf("binary encoding not a fixed point (%d vs %d bytes)", len(enc2), len(enc3))
		}
	})
}
