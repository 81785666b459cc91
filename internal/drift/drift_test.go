package drift

import (
	"bytes"
	"testing"

	"csspgo/internal/irgen"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
	"csspgo/internal/source"
)

const testSrc = `
func helper(x) {
  var t = 0;
  if (x > 10) {
    t = x * 2;
  }
  log(t);
  return t;
}
func log(v) { return v; }
func work(n) {
  var s = 0;
  var i = 0;
  while (i < n) {
    s = s + helper(i);
    i = i + 1;
  }
  return s;
}
func main(a, b) { return work(a) + work(b); }
`

func parse(t *testing.T) []*source.File {
	t.Helper()
	f, err := source.Parse("t.ml", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	return []*source.File{f}
}

// checksums lowers + probes the files and returns per-function checksums.
func checksums(t *testing.T, files []*source.File) map[string]uint64 {
	t.Helper()
	prog, err := irgen.Lower(files...)
	if err != nil {
		t.Fatalf("mutated source no longer lowers: %v", err)
	}
	probe.InsertProgram(prog)
	out := map[string]uint64{}
	for _, f := range prog.Functions() {
		out[f.Name] = f.Checksum
	}
	return out
}

func TestMutationsLowerAndDrift(t *testing.T) {
	files := parse(t)
	base := checksums(t, files)
	for _, m := range All() {
		t.Run(m.String(), func(t *testing.T) {
			mutated := Apply(files, m, 7)
			sums := checksums(t, mutated)
			changed := 0
			for name, sum := range sums {
				if base[name] != sum {
					changed++
				}
			}
			if m.ChangesCFG() && changed == 0 {
				t.Errorf("%s: no checksum drifted", m)
			}
			if !m.ChangesCFG() && changed != 0 {
				t.Errorf("%s: %d checksums drifted but the mutation is layout-only", m, changed)
			}
		})
	}
}

func TestApplyDoesNotMutateInput(t *testing.T) {
	files := parse(t)
	before := checksums(t, parse(t))
	for _, m := range All() {
		Apply(files, m, 3)
	}
	after := checksums(t, files)
	for name, sum := range before {
		if after[name] != sum {
			t.Fatalf("Apply mutated its input: %s changed", name)
		}
	}
}

func TestApplyDeterministic(t *testing.T) {
	files := parse(t)
	for _, m := range All() {
		a := checksums(t, Apply(files, m, 42))
		b := checksums(t, Apply(files, m, 42))
		for name := range a {
			if a[name] != b[name] {
				t.Fatalf("%s: same seed produced different mutations for %s", m, name)
			}
		}
	}
}

// corpusProfile builds a plausible encoded profile for corruption tests.
func corpusProfile() *profdata.Profile {
	p := profdata.New(profdata.ProbeBased, true)
	for _, name := range []string{"main", "work", "helper", "log"} {
		fp := p.FuncProfile(name)
		fp.Checksum = uint64(len(name)) * 977
		fp.HeadSamples = 40
		fp.AddBody(profdata.LocKey{ID: 1}, 100)
		fp.AddBody(profdata.LocKey{ID: 2}, 60)
		fp.AddCall(profdata.LocKey{ID: 3}, "log", 30)
	}
	cp := p.ContextProfile(profdata.NewContext("main", 2, "work"))
	cp.AddBody(profdata.LocKey{ID: 1}, 80)
	return p
}

func TestCorruptionsNeverPanicAndDegrade(t *testing.T) {
	p := corpusProfile()
	encodings := map[string][]byte{
		"text":   []byte(profdata.EncodeToString(p)),
		"binary": profdata.EncodeBinary(p),
	}
	for format, enc := range encodings {
		for _, c := range AllCorruptions() {
			for seed := uint64(0); seed < 8; seed++ {
				name := format + "/" + c.String()
				data := Corrupt(enc, c, seed)
				if bytes.Equal(data, enc) && c != DupRecord {
					t.Errorf("%s seed %d: corruption was a no-op", name, seed)
				}
				// Lenient decode must survive anything Corrupt produces.
				prof, stats, err := profdata.DecodeLenient(data)
				if err != nil {
					// Header destroyed: acceptable only for truncation of
					// tiny inputs; our seeds keep headers, so treat any
					// decode error as unexpected except for TruncateTail.
					if c != TruncateTail {
						t.Errorf("%s seed %d: lenient decode failed: %v", name, seed, err)
					}
					continue
				}
				if prof == nil {
					t.Errorf("%s seed %d: lenient decode returned nil profile", name, seed)
					continue
				}
				// A dropped record must be visible either as a smaller
				// profile or in the skip stats — never silently identical
				// with full trust.
				if c == DropRecord && stats.SkippedRecords == 0 && stats.SkippedLines == 0 &&
					len(prof.Funcs)+len(prof.Contexts) >= len(p.Funcs)+len(p.Contexts) {
					t.Errorf("%s seed %d: dropped record went unnoticed", name, seed)
				}
			}
		}
	}
}

func TestCorruptDeterministic(t *testing.T) {
	enc := []byte(profdata.EncodeToString(corpusProfile()))
	for _, c := range AllCorruptions() {
		if !bytes.Equal(Corrupt(enc, c, 5), Corrupt(enc, c, 5)) {
			t.Fatalf("%s: same seed produced different corruption", c)
		}
	}
}
