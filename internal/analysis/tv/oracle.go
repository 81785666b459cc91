package tv

import (
	"fmt"

	"csspgo/internal/analysis"
	"csspgo/internal/ir"
)

// The differential-execution oracle: run the seeded interpreter on a fixed
// corpus of inputs before and after a pass and require the observable
// outcomes — return value, full effect trace, final global state, and
// termination status — to match exactly. Every legal pass in this pipeline
// preserves the store trace verbatim (stores and counters are never
// deleted, reordered or invented; DCE only drops pure dead code, LICM only
// hoists pure ops and loads, if-conversion only speculates pure register
// writes), so exact-trace comparison is sound: it admits every legal
// transformation and rejects every observable miscompile.

// corpusSize is the number of inputs per pass boundary.
const corpusSize = 6

// corpusSeed seeds the splitmix64 input generator; fixed so checked builds
// are reproducible run to run.
const corpusSeed = 0x7ac3_5eed_c0de_1234

// splitmix64 is the same tiny deterministic generator internal/drift uses
// for fault-site selection.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// makeCorpus builds the input vectors for a main with the given arity: an
// all-zero vector (the edge case every off-by-one loves), a small negative
// vector, and seeded small positives — bounded so loop trip counts stay
// inside the step budget.
func makeCorpus(arity int) [][]int64 {
	rng := uint64(corpusSeed)
	corpus := make([][]int64, 0, corpusSize)
	for i := 0; i < corpusSize; i++ {
		in := make([]int64, arity)
		switch i {
		case 0:
			// zeros
		case 1:
			for j := range in {
				in[j] = -int64(7 + 13*j)
			}
		default:
			for j := range in {
				in[j] = int64(splitmix64(&rng) % 509)
			}
		}
		corpus = append(corpus, in)
	}
	return corpus
}

// runCorpus interprets every corpus input against one program state.
func (c *execContext) runCorpus(p *ir.Program, corpus [][]int64) []RunResult {
	out := make([]RunResult, len(corpus))
	for i, in := range corpus {
		out[i] = c.Run(p, in)
	}
	return out
}

// compareRuns diffs the before/after outcomes input by input and renders
// divergences as tv-oracle diagnostics attributed to the diverging
// function where the trace prefix reveals one.
func compareRuns(corpus [][]int64, before, after []RunResult) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	emit := func(fn string, format string, a ...any) {
		diags = append(diags, analysis.Diagnostic{
			Sev: analysis.SevError, Check: "tv-oracle", Func: fn, Block: -1,
			Msg: fmt.Sprintf(format, a...),
		})
	}
	for i := range corpus {
		b, a := before[i], after[i]
		in := corpus[i]
		switch {
		case b.Status != a.Status:
			emit("", "input %v: termination status diverged: %q before, %q after", in, b.Status, a.Status)
		case b.TraceHash != a.TraceHash || b.TraceLen != a.TraceLen:
			fn, detail := firstTraceDivergence(b, a)
			emit(fn, "input %v: observable effect trace diverged (%d events before, %d after)%s",
				in, b.TraceLen, a.TraceLen, detail)
		case b.GlobalHash != a.GlobalHash:
			emit("", "input %v: final global state diverged", in)
		case b.Status == statusOK && b.Ret != a.Ret:
			emit("main", "input %v: return value diverged: %d before, %d after", in, b.Ret, a.Ret)
		default:
			continue
		}
		if len(diags) >= 3 {
			break // one divergence proves the miscompile; don't flood
		}
	}
	return diags
}

// firstTraceDivergence locates the first differing event within the
// recorded prefixes, returning the function to attribute and a rendered
// detail suffix ("" when the divergence lies beyond the prefix).
func firstTraceDivergence(b, a RunResult) (fn, detail string) {
	n := len(b.Events)
	if len(a.Events) < n {
		n = len(a.Events)
	}
	for i := 0; i < n; i++ {
		if b.Events[i] != a.Events[i] {
			return a.Events[i].Func, fmt.Sprintf(": event %d was %q, now %q", i, b.Events[i], a.Events[i])
		}
	}
	if len(b.Events) != len(a.Events) {
		if len(b.Events) > n {
			return b.Events[n].Func, fmt.Sprintf(": event %d %q disappeared", n, b.Events[n])
		}
		return a.Events[n].Func, fmt.Sprintf(": extra event %d %q", n, a.Events[n])
	}
	return "", ""
}
