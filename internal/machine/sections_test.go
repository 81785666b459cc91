package machine

import (
	"sort"
	"testing"

	"csspgo/internal/ir"
)

func sampleProg() *Prog {
	p := &Prog{
		Instrs: []Instr{
			{Addr: 0x1000, Size: 5, Kind: KConst, Loc: &ir.Loc{Func: "main", Line: 2}},
			{Addr: 0x1005, Size: 3, Kind: KOp, Loc: &ir.Loc{Func: "main", Line: 3}},
			{Addr: 0x1008, Size: 3, Kind: KOp, Loc: &ir.Loc{Func: "leaf", Line: 8,
				Parent: &ir.Loc{Func: "main", Line: 4}}},
			{Addr: 0x100b, Size: 1, Kind: KRet},
		},
		Funcs: []*Func{
			{ID: 0, Name: "main", GUID: ir.GUIDFor("main"), Start: 0x1000, End: 0x100c},
		},
		FuncByName: map[string]*Func{},
		Probes: []ProbeRec{
			{Func: "main", ID: 1, Kind: ir.ProbeBlock, Factor: 1, Addr: 0x1000},
			{Func: "leaf", ID: 1, Kind: ir.ProbeBlock, Factor: 1, Addr: 0x1008,
				InlinedAt: &ir.ProbeSite{Func: "main", CallID: 2}},
			{Func: "main", ID: 3, Kind: ir.ProbeBlock, Factor: 0.5, Addr: 0x1005},
		},
		Checksums: map[string]uint64{"main": 42, "leaf": 43},
	}
	p.FuncByName["main"] = p.Funcs[0]
	p.Freeze()
	return p
}

func TestDebugSectionEncoding(t *testing.T) {
	p := sampleProg()
	sec := p.encodeDebugSection()
	if len(sec) == 0 {
		t.Fatal("empty debug section")
	}
	// Deterministic.
	if string(sec) != string(p.encodeDebugSection()) {
		t.Fatal("debug encoding not deterministic")
	}
	// String interning: adding another instruction with the same function
	// name must grow the section less than the first mention did.
	base := len(sec)
	p.Instrs = append(p.Instrs, Instr{Addr: 0x100c, Size: 3, Kind: KOp,
		Loc: &ir.Loc{Func: "main", Line: 5}})
	grown := len(p.encodeDebugSection())
	if grown-base > len("main")+8 {
		t.Fatalf("interning ineffective: +%d bytes for a repeat mention", grown-base)
	}
}

func TestProbeSectionEncoding(t *testing.T) {
	p := sampleProg()
	sec := p.EncodeProbeSection()
	if len(sec) == 0 {
		t.Fatal("empty probe section")
	}
	if string(sec) != string(p.EncodeProbeSection()) {
		t.Fatal("probe encoding not deterministic")
	}
	// No probes → no section.
	q := &Prog{}
	q.Freeze()
	if q.EncodeProbeSection() != nil {
		t.Fatal("probe-less binary should have no probe section")
	}
}

func TestComputeSizes(t *testing.T) {
	p := sampleProg()
	p.ComputeSizes()
	if p.TextSize != 5+3+3+1 {
		t.Fatalf("text size = %d", p.TextSize)
	}
	if p.DebugSize == 0 || p.ProbeMetaSize == 0 {
		t.Fatalf("section sizes: debug=%d probe=%d", p.DebugSize, p.ProbeMetaSize)
	}
}

func TestInlinedFramesAtChain(t *testing.T) {
	p := sampleProg()
	frames := p.InlinedFramesAt(0x1008)
	if len(frames) != 2 || frames[0].Func != "leaf" || frames[1].Func != "main" {
		t.Fatalf("frames = %+v", frames)
	}
	if p.InlinedFramesAt(0x100b) != nil {
		t.Fatal("instruction without Loc should have no frames")
	}
	if p.InlinedFramesAt(0x9999) != nil {
		t.Fatal("unknown address should have no frames")
	}
}

func TestInstrsInRange(t *testing.T) {
	p := sampleProg()
	lo, hi := p.instrsIn(0x1005, 0x1008)
	if hi-lo != 2 {
		t.Fatalf("range covers %d instrs, want 2", hi-lo)
	}
	lo, hi = p.instrsIn(0x1000, 0x100b)
	if hi-lo != 4 {
		t.Fatalf("full range covers %d, want 4", hi-lo)
	}
	lo, hi = p.instrsIn(0x2000, 0x3000)
	if hi != lo {
		t.Fatal("out-of-range should be empty")
	}
}

func TestProbesAtAndFactor(t *testing.T) {
	p := sampleProg()
	recs := p.ProbesAt(0x1005)
	if len(recs) != 1 || recs[0].Factor != 0.5 {
		t.Fatalf("probes at 0x1005: %+v", recs)
	}
	if len(p.ProbesAt(0x1008)) != 1 {
		t.Fatal("inlined probe not indexed")
	}
	if p.ProbesAt(0x100b) != nil {
		t.Fatal("no probes expected at ret")
	}
}

func TestFuncContains(t *testing.T) {
	f := &Func{Start: 0x1000, End: 0x1010, ColdStart: 0x2000, ColdEnd: 0x2008}
	for addr, want := range map[uint64]bool{
		0x1000: true, 0x100f: true, 0x1010: false,
		0x2000: true, 0x2007: true, 0x2008: false, 0x0fff: false,
	} {
		if f.Contains(addr) != want {
			t.Errorf("Contains(%#x) = %v, want %v", addr, !want, want)
		}
	}
}

// instrsIn returns the instruction index range [lo, hi) covering the
// address range [start, end] (inclusive of the instruction at end).
func (p *Prog) instrsIn(start, end uint64) (lo, hi int) {
	if p.denseIdx != nil {
		return p.ceilIndex(start), p.ceilIndex(end + 1)
	}
	lo = sort.Search(len(p.addrIndex), func(i int) bool { return p.addrIndex[i] >= start })
	hi = sort.Search(len(p.addrIndex), func(i int) bool { return p.addrIndex[i] > end })
	return lo, hi
}

// ceilIndex returns the index of the first instruction at or after addr.
// The scan over hole slots is bounded by the largest instruction size.
func (p *Prog) ceilIndex(addr uint64) int {
	if addr <= p.denseBase {
		return 0
	}
	for off := addr - p.denseBase; off < uint64(len(p.denseIdx)); off++ {
		if i := p.denseIdx[off]; i >= 0 {
			return int(i)
		}
	}
	return len(p.Instrs)
}
