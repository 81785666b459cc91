package sampling

import (
	"csspgo/internal/machine"
	"csspgo/internal/obs"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
	"csspgo/internal/sim"
)

// CSSPGOOptions configures context-sensitive profile generation.
type CSSPGOOptions struct {
	// TailCallInference enables the missing-frame inferrer.
	TailCallInference bool
	// MaxContextDepth truncates contexts to the innermost N frames
	// (0 = unlimited). Deep recursion otherwise explodes the context space.
	MaxContextDepth int
	// AssumeAligned disables skid detection: the unwinder trusts every
	// stack sample to be synchronized with the LBR (correct only under
	// PEBS). Exists for the PEBS ablation — without PEBS it corrupts
	// contexts exactly the way the paper warns about.
	AssumeAligned bool
	// Workers sizes the unwinder worker pool (0 = GOMAXPROCS, 1 = serial).
	// Each worker unwinds the shares of distinct samples it is handed with
	// its own unwinder and private aggregation tables; the tables merge with
	// a deterministic sum reduction, so every worker count yields a
	// byte-identical serialized profile.
	Workers int
	// ChunkSize is the per-chunk sample count GenerateCSSPGO feeds a
	// materialized sample slice in (0 = the whole slice as one chunk, so
	// each distinct sample is unwound once). Output is byte-identical for
	// any value; the tests vary it.
	ChunkSize int
	// Trace receives the profile-generation span tree (tail-call graph,
	// per-worker unwinding, shard merge, finalization). Nil = no tracing.
	Trace *obs.Span
	// Metrics receives the unwind.*, shard.* and profilegen.* metrics.
	// Nil = no publication.
	Metrics *obs.Registry
}

// DefaultCSSPGOOptions returns the production defaults.
func DefaultCSSPGOOptions() CSSPGOOptions {
	return CSSPGOOptions{TailCallInference: true, MaxContextDepth: 6}
}

// GenerateCSSPGO builds a context-sensitive, probe-keyed profile from
// synchronized LBR + stack samples: the full CSSPGO profiler. Every linear
// range is attributed under the calling context recovered by the virtual
// unwinder; probes covered by the range accumulate counts in the profile of
// their full context (physical calling context extended with the probe's
// own inline chain). The slice is fed to a CSSPGOStream in chunks: a
// materialized sample set and a live PMU go through the same engine.
func GenerateCSSPGO(bin *machine.Prog, samples []sim.Sample, opts CSSPGOOptions) (*profdata.Profile, UnwindStats) {
	st := NewCSSPGOStream(bin, opts)
	feedSlice(st, samples, opts.ChunkSize)
	return st.Finish()
}

// contextForProbe builds the full context of one probe record into dst
// (reusing its backing array): the caller frames recovered by the unwinder,
// the probe's inline chain (outermost first), and the probe's defining
// function as leaf, keeping the innermost maxDepth frames (0 = all). The
// result aliases dst; Profile.ContextProfile copies a context it has to
// keep.
func contextForProbe(dst, callerCtx profdata.Context, rec *machine.ProbeRec, maxDepth int) profdata.Context {
	ctx := probe.AppendInlineContext(append(dst[:0], callerCtx...), rec.InlinedAt)
	ctx = append(ctx, profdata.ContextFrame{Func: rec.Func})
	if maxDepth > 0 && len(ctx) > maxDepth {
		// Slide the innermost frames to the front, so that the result still
		// starts where dst does and a caller reusing it keeps the capacity.
		ctx = ctx[:copy(ctx, ctx[len(ctx)-maxDepth:])]
	}
	return ctx
}
