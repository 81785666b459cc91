package opt

import (
	"reflect"
	"testing"
	"unsafe"

	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/probe"
	"csspgo/internal/workloads"
)

// checkTailsClear requires every element between a block's length and its
// capacity to be the zero instruction: what a pass dropped in place must
// not keep Args, Probe or Loc reachable.
func checkTailsClear(t *testing.T, when string, f *ir.Function) {
	t.Helper()
	for _, b := range f.Blocks {
		tail := b.Instrs[len(b.Instrs):cap(b.Instrs)]
		for i := range tail {
			if !reflect.ValueOf(tail[i]).IsZero() {
				t.Errorf("%s: %s b%d holds a dropped instruction %d past its length %d", when, f.Name, b.ID, i, len(b.Instrs))
				break
			}
		}
	}
}

// TestCompactionInPlace runs the training pipeline over generated programs
// and, at the points DCE runs, requires that DCE leaves a block it deleted
// nothing from on the same backing array at the same length, compacts the
// others where they are, and clears what it vacates; at the end of the
// pipeline no block of the program holds a dropped instruction past its
// length, whichever pass shortened it (DCE, LICM, the inliner's and ICP's
// block splits, tail merging).
func TestCompactionInPlace(t *testing.T) {
	unchanged, compacted := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		w, src := workloads.Generate(seed)
		p, err := irgen.Lower(w.Files...)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		probe.InsertProgram(p)
		cfg := &Config{Barrier: BarrierWeak}
		cfg.InjectAfter = map[string]func(*ir.Program){simplifyPass.name: func(p *ir.Program) {
			for _, f := range p.Functions() {
				g := ir.CloneFunction(f)
				type slice struct {
					data *ir.Instr
					n    int
				}
				before := make([]slice, len(g.Blocks))
				for i, b := range g.Blocks {
					before[i] = slice{unsafe.SliceData(b.Instrs), len(b.Instrs)}
				}
				dce(g)
				for i, b := range g.Blocks {
					if unsafe.SliceData(b.Instrs) != before[i].data {
						t.Errorf("seed %d: DCE moved %s b%d to another backing array", seed, g.Name, b.ID)
					}
					if len(b.Instrs) == before[i].n {
						unchanged++
					} else {
						compacted++
					}
				}
				checkTailsClear(t, "after DCE", g)
			}
		}}
		if _, err := Optimize(p, cfg); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		for _, f := range p.Functions() {
			checkTailsClear(t, "after Optimize", f)
		}
		if t.Failed() {
			t.Fatalf("seed %d:\n%s", seed, src)
		}
	}
	if unchanged == 0 || compacted == 0 {
		t.Fatalf("want blocks of both kinds, got %d unchanged and %d compacted", unchanged, compacted)
	}
}

// TestDCEConvergedAllocs is the allocation gate on DCE: on a function DCE
// has already converged on, a second call allocates its liveness workspace
// (the block-position table and the one slab of sets) and nothing else —
// no per-iteration tables, no per-block slice.
func TestDCEConvergedAllocs(t *testing.T) {
	w, err := workloads.Load("hhvm", 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irgen.Lower(w.Files...)
	if err != nil {
		t.Fatal(err)
	}
	probe.InsertProgram(p)
	for _, f := range p.Functions() {
		dce(f)
		if n := dce(f); n != 0 {
			t.Fatalf("%s: DCE removed %d more instructions after converging", f.Name, n)
		}
		if allocs := testing.AllocsPerRun(10, func() { dce(f) }); allocs > 2 {
			t.Errorf("%s (%d blocks): a converged DCE allocates %v times, want its workspace's 2", f.Name, len(f.Blocks), allocs)
		}
	}
}
