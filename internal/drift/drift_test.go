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
			if m.changesCFG() && changed == 0 {
				t.Errorf("%s: no checksum drifted", m)
			}
			if !m.changesCFG() && changed != 0 {
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
				if bytes.Equal(data, enc) && c != dupRecord {
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
				if c == dropRecord && stats.SkippedRecords == 0 && stats.SkippedLines == 0 &&
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

const shiftSrc = `
func finish(x) { return x % 4096; }
func body(n) {
  var s = 0;
  for (var i = 0;
       i < n;
       i = i + 1) {
    if (i > 3) {
      s = s + 1;
    } else if (i > 1) {
      s = s + 2;
    } else {
      s = s + 3;
    }
  }
  switch (s) {
  case 1:
    s = 0;
  default:
    s = 1;
  }
  return finish(s);
}
func main(a, b) { return body(a); }
`

// stmtLines lists every statement's line per function, in walk order.
func stmtLines(files []*source.File) map[string][]int {
	out := map[string][]int{}
	for _, f := range files {
		for _, fn := range f.Funcs {
			forEachStmt(fn.Body, func(s source.Stmt) { out[fn.Name] = append(out[fn.Name], s.Pos()) })
		}
	}
	return out
}

// ShiftLines is the comment-only edit of the §III.A drift experiment: every
// statement below a function's header moves by exactly delta and nothing
// else does — not the header, not a one-line function, not a CFG, not the
// input.
func TestShiftLinesMovesOnlyBodyLines(t *testing.T) {
	f, err := source.Parse("t.ml", shiftSrc)
	if err != nil {
		t.Fatal(err)
	}
	files := []*source.File{f}
	before := stmtLines(files)
	sums := checksums(t, files)

	const delta = 2
	shifted := ShiftLines(files, delta)

	for name, lines := range stmtLines(files) {
		for i, line := range lines {
			if line != before[name][i] {
				t.Fatalf("ShiftLines mutated its input: %s statement %d at line %d, was %d", name, i, line, before[name][i])
			}
		}
	}
	for name, sum := range checksums(t, shifted) {
		if sum != sums[name] {
			t.Errorf("%s: CFG checksum moved under a line shift", name)
		}
	}

	after := stmtLines(shifted)
	for i, fn := range shifted[0].Funcs {
		header := f.Funcs[i].Line
		if fn.Line != header {
			t.Errorf("%s: header moved from line %d to %d", fn.Name, header, fn.Line)
		}
		if len(after[fn.Name]) != len(before[fn.Name]) {
			t.Fatalf("%s: %d statements, had %d", fn.Name, len(after[fn.Name]), len(before[fn.Name]))
		}
		for j, line := range after[fn.Name] {
			want := before[fn.Name][j]
			if want > header {
				want += delta
			}
			if line != want {
				t.Errorf("%s: statement %d (line %d) now at %d, want %d", fn.Name, j, before[fn.Name][j], line, want)
			}
		}
	}
	for _, name := range []string{"finish", "main"} {
		for j, line := range after[name] {
			if line != before[name][j] {
				t.Errorf("one-line function %s moved: statement %d at line %d, was %d", name, j, line, before[name][j])
			}
		}
	}

	// The statements a block walk does not reach: for-loop init and post,
	// and the arms of an else-if chain.
	loop := shifted[0].Funcs[1].Body.Stmts[1].(*source.ForStmt)
	orig := f.Funcs[1].Body.Stmts[1].(*source.ForStmt)
	if got, want := loop.Init.Pos(), orig.Init.Pos()+delta; got != want {
		t.Errorf("for init at line %d, want %d", got, want)
	}
	if got, want := loop.Post.Pos(), orig.Post.Pos()+delta; got != want {
		t.Errorf("for post at line %d, want %d", got, want)
	}
	chain, origChain := loop.Body.Stmts[0].(*source.IfStmt), orig.Body.Stmts[0].(*source.IfStmt)
	for arm := 0; chain != nil; arm++ {
		if got, want := chain.Line, origChain.Line+delta; got != want {
			t.Errorf("if-chain arm %d at line %d, want %d", arm, got, want)
		}
		next, _ := chain.Else.(*source.IfStmt)
		if next == nil && chain.Else != nil {
			if got, want := chain.Else.Pos(), origChain.Else.Pos()+delta; got != want {
				t.Errorf("final else at line %d, want %d", got, want)
			}
		}
		origNext, _ := origChain.Else.(*source.IfStmt)
		chain, origChain = next, origNext
	}
}

// changesCFG says whether the mutation alters function CFGs (and hence
// their checksums). ReorderFuncs does not — it drifts only the layout.
func (m Mutation) changesCFG() bool { return m != ReorderFuncs }
