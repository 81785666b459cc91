package inference

import "testing"

// Unit tests of the min-cost-circulation engine on hand-built graphs.

func newMCF(n int) *mcfGraph { return &mcfGraph{n: n} }

func TestCancelNegativeCyclesSimple(t *testing.T) {
	// 0 → 1 (cap 10, cost -5), 1 → 0 (cap 10, cost 1): each unit around
	// the cycle gains 4; the engine must saturate it.
	g := newMCF(2)
	reward := g.addArc(0, 1, 10, -5)
	g.addArc(1, 0, 10, 1)
	iters, _ := g.cancelNegativeCycles()
	if iters == 0 {
		t.Fatal("no cycles canceled")
	}
	if got := g.flow(reward); got != 10 {
		t.Fatalf("rewarding arc flow = %d, want 10 (saturated)", got)
	}
}

func TestCancelNegativeCyclesStopsAtOptimum(t *testing.T) {
	// Reward arc capacity 5, return path cost 3 each: profitable (−10+3<0)
	// only through the cheap return; the expensive return (cost 20) must
	// stay unused.
	g := newMCF(3)
	g.addArc(0, 1, 5, -10)
	cheap := g.addArc(1, 0, 3, 3)
	exp := g.addArc(1, 2, 100, 10)
	g.addArc(2, 0, 100, 10)
	g.cancelNegativeCycles()
	if got := g.flow(cheap); got != 3 {
		t.Fatalf("cheap return flow = %d, want 3", got)
	}
	// Expensive path: -10+10+10 = +10 per unit → unused.
	if got := g.flow(exp); got != 0 {
		t.Fatalf("expensive return used: %d", got)
	}
}

func TestNoNegativeCyclesNoFlow(t *testing.T) {
	g := newMCF(3)
	g.addArc(0, 1, 10, 1)
	g.addArc(1, 2, 10, 1)
	g.addArc(2, 0, 10, 1)
	if iters, _ := g.cancelNegativeCycles(); iters != 0 {
		t.Fatalf("positive-cost cycle canceled %d times", iters)
	}
}

func TestInferEmptyFunctionSafe(t *testing.T) {
	// A function with one block and no weights must not crash.
	f := diamond(t, ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	res := infer(f)
	if v := checkConsistency(f); v != 0 {
		t.Fatalf("violations on unweighted function: %d", v)
	}
	_ = res
}

func TestInferIdempotent(t *testing.T) {
	f := diamond(t, 100, 60, 30, 100)
	infer(f)
	snapshot := f.String()
	res := infer(f)
	if f.String() != snapshot {
		t.Fatal("second inference changed a consistent profile")
	}
	if res.Adjusted != 0 {
		t.Fatalf("second inference adjusted %d blocks", res.Adjusted)
	}
}
