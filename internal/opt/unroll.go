package opt

import "csspgo/internal/ir"

// unrollParams controls loop unrolling.
type unrollParams struct {
	// Factor is the unroll factor for qualifying loops (≥2).
	Factor int
	// MaxBodyInstrs bounds the body size (real instructions).
	MaxBodyInstrs int
	// HotWeight: with a profile, only loops whose header weight reaches
	// this value unroll. Zero means no hotness requirement.
	HotWeight uint64
}

// unrollPass replicates loop bodies and rescales weights heuristically.
var unrollPass = registerPass("unroll", flowPerturbs, semRestructures)

// unroll performs exit-check unrolling of simple two-block loops
// (header: cond-branch {body, exit}; body: … jump header): the body and
// header test are replicated Factor-1 times, so each trip through the
// rotated loop retires Factor bodies with Factor exit checks but only one
// back edge. This is the code-duplication class of optimization: cloned
// instructions share source lines (no discriminators) and cloned probes
// share probe IDs, so line-based correlation undercounts (max heuristic)
// while probe-based correlation stays exact (sum). Block weights and edge
// weights are divided by Factor to maintain the profile.
//
// Returns the number of loops unrolled.
func unroll(f *ir.Function, p unrollParams) int {
	if p.Factor < 2 {
		return 0
	}
	unrolled := 0
	loops, _ := f.NaturalLoops()
	for _, loop := range loops {
		if unrollLoop(f, loop, p) {
			unrolled++
		}
	}
	if unrolled > 0 {
		f.RebuildCFG()
	}
	return unrolled
}

func unrollLoop(f *ir.Function, loop *ir.Loop, p unrollParams) bool {
	if len(loop.Blocks) != 2 || len(loop.Latches) != 1 {
		return false
	}
	header := loop.Header
	body := loop.Latches[0]
	if header.Term.Kind != ir.TermBranch || body.Term.Kind != ir.TermJump {
		return false
	}
	if header.Term.Succs[0] != body || body.Term.Succs[0] != header {
		return false
	}
	real := 0
	for i := range body.Instrs {
		if body.Instrs[i].Op != ir.OpProbe {
			real++
		}
	}
	if real == 0 || real > p.MaxBodyInstrs {
		return false
	}
	// Calls in the body would grow code too fast; skip.
	for i := range body.Instrs {
		if body.Instrs[i].Op == ir.OpCall {
			return false
		}
	}
	if p.HotWeight > 0 && (!header.HasWeight || header.Weight < p.HotWeight) {
		return false
	}

	exit := header.Term.Succs[1]
	factor := uint64(p.Factor)

	// Build copies: body → H1 → B1 → H2 → … → B_{F-1} → header.
	prevTail := body // block whose jump we rewire next
	for k := 1; k < p.Factor; k++ {
		hmap := ir.CloneRegion(f, []*ir.Block{header}, nil)
		bmap := ir.CloneRegion(f, []*ir.Block{body}, nil)
		hc, bc := hmap[header], bmap[body]
		// Header copy: branch to body copy or exit.
		hc.Term.Succs[0] = bc
		hc.Term.Succs[1] = exit
		// Body copy: jump to… patched next iteration (default header).
		bc.Term.Succs[0] = header
		prevTail.Term.Succs[0] = hc
		prevTail = bc
	}

	// Profile maintenance: the header and body (and their copies) now each
	// execute ~1/Factor of the original trips.
	scaleBlock := func(b *ir.Block) {
		if b.HasWeight {
			b.Weight /= factor
		}
		for i := range b.Term.EdgeW {
			b.Term.EdgeW[i] /= factor
		}
	}
	f.RebuildCFG()
	scaleBlock(header)
	scaleBlock(body)
	// CloneRegion appended the 2*(Factor-1) copies at the end; scale them
	// too (they were cloned with the pre-scale weights).
	n := len(f.Blocks)
	for i := n - 2*(p.Factor-1); i >= 0 && i < n; i++ {
		scaleBlock(f.Blocks[i])
	}
	return true
}
