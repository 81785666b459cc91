// Package quality implements the paper's profile-quality metric (§IV.C):
// block overlap degree against an instrumentation ground truth, evaluated
// on a common control-flow graph.
//
//	D(V)  = Σ_v min( f(v)/Σf , gt(v)/Σgt )
//	D(P)  = Σ_V D(V) · (Σ_v f(v) / Σ_V Σ_v f(v))
package quality

import (
	"csspgo/internal/ir"
	"csspgo/internal/opt"
	"csspgo/internal/profdata"
)

// BlockOverlap annotates two clones of the same (pre-optimization) IR with
// the test profile and the ground-truth profile and computes the weighted
// block overlap degree in [0, 1]. Context-sensitive profiles are flattened
// first (the metric is defined on a common flow graph). Functions the test
// profile never sampled contribute no weight, mirroring the paper's
// f-weighted aggregation.
func BlockOverlap(prog *ir.Program, test, gt *profdata.Profile) float64 {
	ta := annotateClone(prog, test)
	ga := annotateClone(prog, gt)

	type funcOverlap struct {
		d      float64
		fTotal float64
	}
	var overlaps []funcOverlap
	var grandTotal float64

	for _, name := range prog.Order {
		tf, gf := ta.Funcs[name], ga.Funcs[name]
		if tf == nil || gf == nil {
			continue
		}
		var fSum, gtSum float64
		for i := range tf.Blocks {
			fSum += float64(tf.Blocks[i].Weight)
			gtSum += float64(gf.Blocks[i].Weight)
		}
		if fSum == 0 || gtSum == 0 {
			continue
		}
		d := 0.0
		for i := range tf.Blocks {
			fv := float64(tf.Blocks[i].Weight) / fSum
			gv := float64(gf.Blocks[i].Weight) / gtSum
			if fv < gv {
				d += fv
			} else {
				d += gv
			}
		}
		overlaps = append(overlaps, funcOverlap{d: d, fTotal: fSum})
		grandTotal += fSum
	}
	if grandTotal == 0 {
		return 0
	}
	total := 0.0
	for _, o := range overlaps {
		total += o.d * o.fTotal / grandTotal
	}
	return total
}

// annotateClone deep-copies the program and annotates it with a flattened
// view of the profile.
func annotateClone(prog *ir.Program, prof *profdata.Profile) *ir.Program {
	clone := ir.CloneProgram(prog)
	opt.Annotate(clone, prof.Flat())
	return clone
}
