package fleet

// overlapTrend watches the promotion gate's margin (context overlap minus
// the configured floor) across rounds and flags erosion before the gate
// actually rejects: an EWMA smooths the series, and two consecutive
// observations below the smoothed level mean the margin is degrading, not
// merely noisy. Driven once per Promote call, so its state advances on the
// same deterministic logical clock as everything else in the control plane.
type overlapTrend struct {
	ewma     float64
	seeded   bool
	declines int // consecutive observations below the EWMA
}

// trendAlpha is the EWMA smoothing factor. It weights recent margins
// heavily: the detector should react within a few rounds, not after the
// gate already fired.
const trendAlpha = 0.5

// trendEps absorbs float noise: a decline smaller than this is flat.
const trendEps = 1e-9

// newOverlapTrend returns a detector with no observations.
func newOverlapTrend() *overlapTrend { return &overlapTrend{} }

// Observe folds one round's gate margin in and reports whether the margin
// is degrading: at least two consecutive observations fell below the
// running EWMA. The first observation seeds the EWMA and never degrades.
func (t *overlapTrend) Observe(margin float64) bool {
	if t == nil {
		return false
	}
	if !t.seeded {
		t.ewma = margin
		t.seeded = true
		return false
	}
	if margin < t.ewma-trendEps {
		t.declines++
	} else {
		t.declines = 0
	}
	t.ewma = trendAlpha*margin + (1-trendAlpha)*t.ewma
	return t.declines >= 2
}

// level returns the current smoothed margin (0 before the first Observe).
func (t *overlapTrend) level() float64 {
	if t == nil {
		return 0
	}
	return t.ewma
}
