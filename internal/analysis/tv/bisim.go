package tv

import (
	"fmt"

	"csspgo/internal/analysis"
	"csspgo/internal/ir"
)

// CFG bisimulation for structure-preserving passes: starting from the two
// entry blocks, corresponding blocks must have equal normalized signatures
// (same observable effects, same terminator behavior, same live-out
// assignments — see sig.go), and their successors must correspond pairwise.
// The pairing is coinductive over the product graph, so diamonds, loops and
// block merges that leave behavior intact all verify, while a dropped
// branch, swapped successor or invented effect surfaces as a signature or
// pairing mismatch on a concrete block pair.

// maxSigDetail truncates signature components quoted in diagnostics.
const maxSigDetail = 160

// diffFunctions bisimulates before against after and returns tv-bisim
// error diagnostics for every inequivalence found on the visited product
// graph (empty = proven equivalent for this tier).
func diffFunctions(before, after *ir.Function) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	emit := func(block int, format string, a ...any) {
		diags = append(diags, analysis.Diagnostic{
			Sev: analysis.SevError, Check: "tv-bisim", Func: after.Name, Block: block,
			Msg: fmt.Sprintf(format, a...),
		})
	}
	if len(before.Params) != len(after.Params) {
		emit(-1, "arity changed: %d parameter(s) before, %d after", len(before.Params), len(after.Params))
		return diags
	}

	liveB, liveA := liveness(before), liveness(after)
	sigB, sigA := map[*ir.Block][]string{}, map[*ir.Block][]string{}
	sigOf := func(cache map[*ir.Block][]string, live map[*ir.Block]analysis.BitSet, b *ir.Block) []string {
		if s, ok := cache[b]; ok {
			return s
		}
		s := signature(b, live[b])
		cache[b] = s
		return s
	}

	type pair struct{ b, a int }
	visited := map[pair]bool{}
	type item struct{ b, a *ir.Block }
	work := []item{{before.Entry(), after.Entry()}}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		pr := pair{it.b.ID, it.a.ID}
		if visited[pr] {
			continue
		}
		visited[pr] = true

		sb := sigOf(sigB, liveB, it.b)
		sa := sigOf(sigA, liveA, it.a)
		if reason, ok := sigMismatch(sb, sa); !ok {
			emit(it.a.ID, "block b%d (before) / b%d (after) diverge: %s", it.b.ID, it.a.ID, reason)
			if len(diags) >= 3 {
				return diags // one pair proves inequivalence; don't flood
			}
			continue // successors of a diverged pair prove nothing more
		}
		// Equal signatures imply equal terminator kinds and case lists,
		// hence equal successor counts; pair positionally (taken/not-taken
		// and case order are part of the signature).
		for i := range it.b.Term.Succs {
			work = append(work, item{it.b.Term.Succs[i], it.a.Term.Succs[i]})
		}
	}
	return diags
}

// sigMismatch compares two signatures and, on inequality, renders the first
// differing component.
func sigMismatch(b, a []string) (string, bool) {
	n := len(b)
	if len(a) < n {
		n = len(a)
	}
	for i := 0; i < n; i++ {
		if b[i] != a[i] {
			return fmt.Sprintf("component %d was %q, now %q",
				i, trunc(b[i]), trunc(a[i])), false
		}
	}
	if len(b) != len(a) {
		if len(b) > n {
			return fmt.Sprintf("component %d %q disappeared", n, trunc(b[n])), false
		}
		return fmt.Sprintf("extra component %d %q", n, trunc(a[n])), false
	}
	return "", true
}

func trunc(s string) string {
	if len(s) > maxSigDetail {
		return s[:maxSigDetail] + "…"
	}
	return s
}
