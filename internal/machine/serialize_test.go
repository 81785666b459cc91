package machine

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"csspgo/internal/ir"
)

func TestProgGobRoundTrip(t *testing.T) {
	p := &Prog{
		Instrs: []Instr{
			{Addr: 0x1000, Size: 5, Kind: KConst, Dst: 0, Value: 7,
				Loc: &ir.Loc{Func: "main", Line: 2}},
			{Addr: 0x1005, Size: 1, Kind: KRet, A: 0},
		},
		Funcs:      []*Func{{ID: 0, Name: "main", Start: 0x1000, End: 0x1006, NumRegs: 3}},
		FuncByName: map[string]*Func{},
		GlobalInit: []int64{1, 2, 3},
		GlobalSize: 3,
		GlobalOff:  map[string]int32{"g": 0},
		Probes: []ProbeRec{{Func: "main", ID: 1, Addr: 0x1000, Factor: 1,
			InlinedAt: &ir.ProbeSite{Func: "outer", CallID: 4}}},
		Checksums: map[string]uint64{"main": 42},
		EntryAddr: 0x1000,
	}
	p.FuncByName["main"] = p.Funcs[0]
	p.ComputeSizes()

	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadProg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.InstrAt(0x1000) == nil || q.InstrAt(0x1005) == nil {
		t.Fatal("address index not rebuilt")
	}
	if q.FuncByName["main"].Start != 0x1000 {
		t.Fatal("symbol table lost")
	}
	if len(q.Index().ProbeIndicesAt(0x1000)) != 1 {
		t.Fatal("probe index not rebuilt")
	}
	if q.Probes[0].InlinedAt == nil || q.Probes[0].InlinedAt.Func != "outer" {
		t.Fatal("probe inline chain lost")
	}
	if q.Checksums["main"] != 42 || q.TextSize != p.TextSize {
		t.Fatal("metadata lost")
	}
	if q.Instrs[0].Loc == nil || q.Instrs[0].Loc.Func != "main" {
		t.Fatal("debug info lost")
	}
}

// TestInstrSize pins the packed size of a machine instruction: the fields
// are ordered so no padding is left but the struct's tail.
func TestInstrSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pin is for 64-bit targets")
	}
	if got := unsafe.Sizeof(Instr{}); got != 96 {
		t.Errorf("machine.Instr is %d bytes, want 96", got)
	}
}

// TestInstrPointersFirst requires that no field holding a pointer follows a
// pointer-free one: the collector scans a value only up to its last pointer
// word, so with the pointers first it scans 32 of machine.Instr's 96 bytes.
func TestInstrPointersFirst(t *testing.T) {
	typ := reflect.TypeFor[Instr]()
	scalar := ""
	for i := range typ.NumField() {
		f := typ.Field(i)
		switch {
		case !holdsPointer(f.Type):
			if scalar == "" {
				scalar = f.Name
			}
		case scalar != "":
			t.Errorf("machine.Instr: pointer field %s follows pointer-free field %s", f.Name, scalar)
		}
	}
}

// holdsPointer reports whether a value of type t contains a word the
// garbage collector must scan.
func holdsPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return true
	case reflect.Array:
		return t.Len() > 0 && holdsPointer(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if holdsPointer(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
