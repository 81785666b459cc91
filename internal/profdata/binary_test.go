package profdata

import (
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	p := makeProfile()
	data := EncodeBinary(p)
	q, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if EncodeToString(q) != EncodeToString(p) {
		t.Fatalf("binary round trip changed profile:\n%s\nvs\n%s",
			EncodeToString(p), EncodeToString(q))
	}
	if q.Kind != p.Kind || q.CS != p.CS {
		t.Fatal("header lost")
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	p := New(ProbeBased, true)
	for i := 0; i < 100; i++ {
		fp := p.ContextProfile(NewContext("caller", i+1, "util"))
		fp.HeadSamples = uint64(i * 7)
		for j := int32(1); j <= 10; j++ {
			fp.AddBody(LocKey{ID: j}, uint64(i*int(j)))
		}
		fp.AddCall(LocKey{ID: 5}, "leaf", uint64(i))
	}
	text := p.SizeBytes()
	bin := p.BinarySizeBytes()
	if bin >= text {
		t.Fatalf("binary (%d) should be smaller than text (%d)", bin, text)
	}
	if bin*3 > text {
		t.Logf("binary %d vs text %d (ratio %.2f)", bin, text, float64(bin)/float64(text))
	}
}

func TestDecodeAnyAutoDetects(t *testing.T) {
	p := makeProfile()
	fromText, err := Decode([]byte(EncodeToString(p)))
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := Decode(EncodeBinary(p))
	if err != nil {
		t.Fatal(err)
	}
	if EncodeToString(fromText) != EncodeToString(fromBin) {
		t.Fatal("auto-detected decodes disagree")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("CSPF"),             // truncated header
		[]byte("XXXX\x01\x03rest"), // wrong magic
		[]byte("CSPF\x63\x03"),     // bad version
		append([]byte("CSPF\x01\x03"), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01), // absurd count
	}
	for i, data := range cases {
		if i == 1 || i == 2 {
			if isBinaryProfile(data) {
				t.Errorf("case %d: misdetected as binary", i)
			}
			continue
		}
		if _, err := Decode(data); err == nil && data != nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestBinaryTruncationDetected(t *testing.T) {
	p := makeProfile()
	data := EncodeBinary(p)
	for _, cut := range []int{7, len(data) / 2, len(data) - 1} {
		if cut >= len(data) {
			continue
		}
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

// Property: binary round trip is lossless for generated profiles.
func TestBinaryRoundTripProperty(t *testing.T) {
	err := quick.Check(func(n uint8, heads []uint16, bodies []uint16) bool {
		if len(heads) == 0 || len(bodies) == 0 {
			return true
		}
		p := New(ProbeBased, true)
		for i := 0; i < int(n%6)+1; i++ {
			fp := p.ContextProfile(NewContext("main", i+1, "f"))
			fp.HeadSamples = uint64(heads[i%len(heads)])
			for j := 0; j < 4; j++ {
				fp.AddBody(LocKey{ID: int32(j + 1), Disc: int32(j % 2)}, uint64(bodies[(i+j)%len(bodies)]))
			}
			fp.AddCall(LocKey{ID: 2}, "callee", uint64(heads[i%len(heads)]))
		}
		base := p.FuncProfile("f")
		base.AddBody(LocKey{ID: 1}, 5)
		q, err := Decode(EncodeBinary(p))
		if err != nil {
			return false
		}
		return EncodeToString(q) == EncodeToString(p)
	}, &quick.Config{MaxCount: 80})
	if err != nil {
		t.Fatal(err)
	}
}
