package machine

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"csspgo/internal/ir"
)

func TestProgGobRoundTrip(t *testing.T) {
	p := &Prog{
		Instrs: []Instr{
			{Addr: 0x1000, Kind: KConst, Dst: 0, Value: 7,
				Loc: &ir.Loc{Func: "main", Line: 2}},
			{Addr: 0x1005, Kind: KLoad, Dst: 1, Ref: 2, B: 0},
			{Addr: 0x1009, Kind: KCall, Dst: 2, Ref: 0, Target: 0x1000, ArgStart: 1, ArgCount: 2},
			{Addr: 0x100e, Kind: KRet, A: 2},
		},
		ArgRegs:    []int32{9, 0, 1},
		Layout:     InstrLayout,
		Funcs:      []*Func{{ID: 0, Name: "main", Start: 0x1000, End: 0x100f, NumRegs: 3}},
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
	if q.InstrAt(0x1000) == nil || q.InstrAt(0x100e) == nil {
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
	if q.Checksums["main"] != 42 || q.TextSize != p.TextSize || q.TextSize != 5+4+5+1 {
		t.Fatal("metadata lost")
	}
	if q.Instrs[0].Loc == nil || q.Instrs[0].Loc.Func != "main" {
		t.Fatal("debug info lost")
	}
	if !reflect.DeepEqual(q.Instrs[1:], p.Instrs[1:]) {
		t.Fatalf("instructions read back as %+v, want %+v", q.Instrs[1:], p.Instrs[1:])
	}
	if got := q.Args(&q.Instrs[2]); !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Fatalf("call arguments read back as %v, want [0 1]", got)
	}
}

// layout1Instr is machine.Instr as instruction layout 1 had it: 96 bytes,
// with Size, one field per table index and the arguments per call.
type layout1Instr struct {
	ArgRegs []int32
	Loc     *ir.Loc

	Addr   uint64
	Value  int64
	Target uint64
	Size   uint32

	Kind      Kind
	Op        ir.Opcode
	Bin       ir.BinKind
	BranchNeg bool

	Dst, A, B, C int32

	GlobalOff int32
	Index     int32
	CalleeID  int32
	CounterID int32
}

// layout1Prog is the part of a layout-1 binary the test writes.
type layout1Prog struct {
	Instrs    []layout1Instr
	Funcs     []*Func
	EntryAddr uint64
}

// TestReadProgRejectsOldLayout: a binary saved with the 96-byte record
// decodes without a gob error, since gob skips the fields the record no
// longer has. ReadProg must still refuse it, and say to rebuild it.
func TestReadProgRejectsOldLayout(t *testing.T) {
	if got := unsafe.Sizeof(layout1Instr{}); unsafe.Sizeof(uintptr(0)) == 8 && got != 96 {
		t.Fatalf("the layout-1 copy is %d bytes, want 96", got)
	}
	old := layout1Prog{
		Instrs: []layout1Instr{
			{Addr: 0x1000, Size: 5, Kind: KCall, Dst: 0, CalleeID: 1, Target: 0x1006, ArgRegs: []int32{0}},
			{Addr: 0x1005, Size: 1, Kind: KRet, A: 0},
			{Addr: 0x1006, Size: 4, Kind: KLoad, Dst: 0, GlobalOff: 3, Index: -1},
			{Addr: 0x100a, Size: 1, Kind: KRet, A: 0},
		},
		Funcs:     []*Func{{ID: 0, Name: "main", Start: 0x1000, End: 0x1006}, {ID: 1, Name: "f", Start: 0x1006, End: 0x100b}},
		EntryAddr: 0x1000,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	// What a reader without the marker would get: the call's callee and
	// arguments, and the load's offset, silently zero.
	var blind Prog
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&blind); err != nil {
		t.Fatalf("gob refused the old binary itself (%v); the marker would not be needed", err)
	}
	if in := blind.Instrs[0]; in.Ref != 0 || in.ArgCount != 0 {
		t.Fatalf("gob filled the merged fields of the old call: %+v", in)
	}
	_, err := ReadProg(&buf)
	if err == nil || !strings.Contains(err.Error(), "rebuild") {
		t.Fatalf("ReadProg(layout-1 binary) = %v, want an error that says to rebuild it", err)
	}
}

// TestReadProgRejectsArgumentsOutOfRange: a call whose argument range does
// not lie inside the binary's argument slab is refused on load, so the
// simulator never slices past it.
func TestReadProgRejectsArgumentsOutOfRange(t *testing.T) {
	for _, c := range []struct {
		name            string
		start, count    int32
		slab            []int32
		wantErrContains string
	}{
		{"inside", 1, 2, []int32{0, 1, 2}, ""},
		{"empty at the end", 3, 0, []int32{0, 1, 2}, ""},
		{"past the end", 2, 2, []int32{0, 1, 2}, "argument slab"},
		{"no slab", 0, 1, nil, "argument slab"},
		{"negative start", -1, 1, []int32{0, 1, 2}, "argument slab"},
		{"negative count", 1, -1, []int32{0, 1, 2}, "argument slab"},
		{"overflowing end", 1, 1<<31 - 1, []int32{0, 1, 2}, "argument slab"},
	} {
		p := &Prog{
			Instrs: []Instr{
				{Addr: 0x1000, Kind: KCall, Target: 0x1000, ArgStart: c.start, ArgCount: c.count},
				{Addr: 0x1005, Kind: KRet, A: -1},
			},
			ArgRegs:   c.slab,
			Layout:    InstrLayout,
			Funcs:     []*Func{{ID: 0, Name: "main", Start: 0x1000, End: 0x1006, NumRegs: 3}},
			EntryAddr: 0x1000,
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := ReadProg(&buf)
		switch {
		case c.wantErrContains == "" && err != nil:
			t.Errorf("%s: ReadProg = %v, want no error", c.name, err)
		case c.wantErrContains != "" && (err == nil || !strings.Contains(err.Error(), c.wantErrContains)):
			t.Errorf("%s: ReadProg = %v, want an error about the %s", c.name, err, c.wantErrContains)
		}
	}
}

// TestReadProgRejectsUnknownKind: an instruction's size comes from its
// kind, so a binary with a kind this machine does not have is refused.
func TestReadProgRejectsUnknownKind(t *testing.T) {
	p := &Prog{
		Instrs:    []Instr{{Addr: 0x1000, Kind: KCounter + 1}},
		Layout:    InstrLayout,
		Funcs:     []*Func{{ID: 0, Name: "main", Start: 0x1000, End: 0x1001}},
		EntryAddr: 0x1000,
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadProg(&buf); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("ReadProg = %v, want an unknown-kind error", err)
	}
}

// TestInstrSize pins the packed size of a machine instruction: the fields
// are ordered so no padding is left.
func TestInstrSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pin is for 64-bit targets")
	}
	if got := unsafe.Sizeof(Instr{}); got != 64 {
		t.Errorf("machine.Instr is %d bytes, want 64", got)
	}
}

// TestInstrPointersFirst requires that no field holding a pointer follows a
// pointer-free one: the collector scans a value only up to its last pointer
// word, so with Loc first it scans 8 of machine.Instr's 64 bytes. Loc is
// also the only field that may hold a pointer.
func TestInstrPointersFirst(t *testing.T) {
	typ := reflect.TypeFor[Instr]()
	scalar := ""
	for i := range typ.NumField() {
		f := typ.Field(i)
		if holdsPointer(f.Type) && f.Name != "Loc" {
			t.Errorf("machine.Instr: field %s holds a pointer; only Loc may", f.Name)
		}
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
